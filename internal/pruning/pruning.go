package pruning

import (
	"acd/internal/blocking"
	"acd/internal/cluster"
	"acd/internal/obs"
	"acd/internal/record"
	"acd/internal/similarity"
)

// Metric names emitted by the pruning phase (the joins add the
// finer-grained pruning/* funnel and phase timers; see
// internal/blocking).
const (
	// MetricRecords is the input universe size |R| (a counter so repeated
	// runs under one recorder accumulate total records processed).
	MetricRecords = "pruning/records"
	// MetricCandidates counts the candidate pairs kept, |S|.
	MetricCandidates = "pruning/candidates"
	// MetricTau is the threshold the run used (a gauge).
	MetricTau = "pruning/tau"
)

// DefaultTau is the similarity threshold used throughout the paper's
// experiments (Section 6.1).
const DefaultTau = 0.3

// Candidates is the output of the pruning phase: the candidate set S with
// machine scores, in descending score order, plus a score lookup.
type Candidates struct {
	// Pairs holds the candidate set S sorted by descending machine score
	// (the issue order used by TransM).
	Pairs []blocking.ScoredPair
	// Machine maps each candidate pair to its machine similarity f. Pairs
	// outside the map were pruned and have f = 0 by convention.
	Machine cluster.Scores
	// N is the size of the record universe.
	N int
}

// Options configures a pruning run.
type Options struct {
	// Tau is the pruning threshold; pairs must satisfy f > Tau.
	// Unless TauSet is true, the zero value means DefaultTau.
	Tau float64
	// TauSet marks Tau as explicit. With TauSet false (the zero value),
	// Tau == 0 is shorthand for DefaultTau; with TauSet true, Tau is used
	// verbatim, so an explicit τ = 0 — keep every pair with any overlap
	// at all — is representable.
	TauSet bool
	// Metric scores record pairs. Nil means token Jaccard (run through
	// the indexed join); any other metric uses the naive all-pairs scan.
	Metric similarity.Metric
	// Parallelism fans the similarity join's probe out over a worker
	// pool: 0 (or negative) sizes the pool to GOMAXPROCS, n ≥ 1 uses
	// exactly n workers — 1 is one worker of the same code, not a
	// separate implementation. Output is byte-identical across all
	// settings (see the differential tests in internal/blocking).
	Parallelism int
	// Obs, when set, receives the phase's metrics: the pruning/* funnel
	// counters and the join's index and probe timers. Nil (the zero
	// value) records nothing. Recording never changes the output.
	Obs *obs.Recorder
}

// EffectiveTau resolves the threshold the run will use: Tau when TauSet
// (or nonzero), DefaultTau otherwise.
func (o Options) EffectiveTau() float64 {
	if o.TauSet || o.Tau != 0 {
		return o.Tau
	}
	return DefaultTau
}

// Prune runs the pruning phase over records and returns the candidate
// set.
//
// Pairs name records by their position in the slice, whatever their ID
// fields say and whichever join runs — the universe Candidates.N sizes
// and every consumer indexes.
//
// The two joins disagree on one input by design: records without a
// single token. similarity.Jaccard scores two of them 1 (two empty sets
// are equal), so a non-nil Metric — even similarity.Jaccard itself,
// which selects the all-pairs scan — pairs them up; the indexed join
// behind Metric == nil, like blocking.IncrementalIndex, pairs records
// through shared tokens and emits nothing for them. The indexed rule is
// the useful one (blank records are not evidence of a duplicate) and is
// what the experiments run on; TestPrunePositionsAndTokenless pins both.
func Prune(records []record.Record, opts Options) *Candidates {
	rec := opts.Obs
	done := rec.StartPhase("pruning")
	defer done()
	tau := opts.EffectiveTau()
	rec.Gauge(MetricTau, tau)
	rec.Count(MetricRecords, int64(len(records)))
	var scored []blocking.ScoredPair
	if opts.Metric == nil {
		scored = blocking.JaccardJoinParallelObs(records, tau, opts.Parallelism, rec)
	} else {
		scored = blocking.NaiveJoinParallelObs(records, opts.Metric, tau, opts.Parallelism, rec)
	}
	machine := make(cluster.Scores, len(scored))
	for _, sp := range scored {
		machine[sp.Pair] = sp.Score
	}
	rec.Count(MetricCandidates, int64(len(scored)))
	if rec.Tracing() {
		rec.Trace("pruning.done", map[string]any{
			"records": len(records), "tau": tau, "candidates": len(scored),
		})
	}
	return &Candidates{Pairs: scored, Machine: machine, N: len(records)}
}

// FromScores builds a Candidates directly from a score map, applying the
// threshold. Used by tests and by dataset fixtures where scores are
// prescribed rather than computed.
func FromScores(n int, scores cluster.Scores, tau float64) *Candidates {
	var pairs []blocking.ScoredPair
	machine := make(cluster.Scores)
	for p, f := range scores {
		if f > tau {
			pairs = append(pairs, blocking.ScoredPair{Pair: p, Score: f})
			machine[p] = f
		}
	}
	blocking.SortScored(pairs)
	return &Candidates{Pairs: pairs, Machine: machine, N: n}
}

// PairList returns just the pairs of the candidate set, in the same
// descending-score order as Pairs.
func (c *Candidates) PairList() []record.Pair {
	out := make([]record.Pair, len(c.Pairs))
	for i, sp := range c.Pairs {
		out[i] = sp.Pair
	}
	return out
}

// Contains reports whether p survived pruning.
func (c *Candidates) Contains(p record.Pair) bool {
	_, ok := c.Machine[p]
	return ok
}

// Score returns the machine score f of a pair (0 if pruned).
func (c *Candidates) Score(p record.Pair) float64 { return c.Machine.Get(p) }
