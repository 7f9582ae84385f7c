package pruning

import (
	"math"
	"slices"

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
// machine scores, in descending score order, plus a dense pair → index
// lookup. S is fixed for a campaign, so every per-pair structure
// downstream (refine's estimate cache, the market's prior) reads a
// pair's score through Index as a binary search in one short row
// instead of hashing the pair.
type Candidates struct {
	// Pairs holds the candidate set S sorted by descending machine score
	// (the issue order used by TransM). Treat it as read-only: the index
	// below is built over it once.
	Pairs []blocking.ScoredPair
	// N is the size of the record universe.
	N int

	// The pair index in CSR form, rows keyed by Pair.Lo: row lo's
	// partners occupy hi[off[lo]:off[lo+1]] in ascending order, and
	// pos[k] is the position in Pairs of the pair (lo, hi[k]). Prune and
	// FromScores build it; a Candidates made any other way has an empty
	// index.
	off []int32
	hi  []uint32
	pos []int32
}

// newCandidates wraps a scored candidate list (already in descending
// score order, each pair canonical and distinct) over a universe of n
// records, building its pair index. Pair ids may exceed n — the index
// sizes its rows from the pairs — but must lie in [0, 2³²).
//
// The index is two counting sorts: pairs are first bucketed by Hi, then
// dealt out to their Lo rows in that order, so every row comes out
// sorted by Hi with no comparison sort and O(|S| + max id) work.
func newCandidates(n int, pairs []blocking.ScoredPair) *Candidates {
	c := &Candidates{Pairs: pairs, N: n}
	rows, cols := 0, 0
	for _, sp := range pairs {
		_ = sp.Pair.Key() // range check: ids in [0, 2³²)
		rows = max(rows, int(sp.Pair.Lo)+1)
		cols = max(cols, int(sp.Pair.Hi)+1)
	}
	// Bucket pair positions by Hi.
	byHi := make([]int32, cols+1)
	for _, sp := range pairs {
		byHi[sp.Pair.Hi+1]++
	}
	for h := 0; h < cols; h++ {
		byHi[h+1] += byHi[h]
	}
	order := make([]int32, len(pairs))
	for i, sp := range pairs {
		order[byHi[sp.Pair.Hi]] = int32(i)
		byHi[sp.Pair.Hi]++
	}
	// Deal them out to their Lo rows in ascending-Hi order.
	c.off = make([]int32, rows+1)
	for _, sp := range pairs {
		c.off[sp.Pair.Lo+1]++
	}
	for r := 0; r < rows; r++ {
		c.off[r+1] += c.off[r]
	}
	cur := append([]int32(nil), c.off[:rows]...)
	c.hi = make([]uint32, len(pairs))
	c.pos = make([]int32, len(pairs))
	for _, i := range order {
		p := pairs[i].Pair
		k := cur[p.Lo]
		cur[p.Lo]++
		c.hi[k] = uint32(p.Hi)
		c.pos[k] = i
	}
	return c
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
	rec.Count(MetricCandidates, int64(len(scored)))
	if rec.Tracing() {
		rec.Trace("pruning.done", map[string]any{
			"records": len(records), "tau": tau, "candidates": len(scored),
		})
	}
	return newCandidates(len(records), scored)
}

// FromScores builds a Candidates directly from a score map, applying the
// threshold. Used by tests and by dataset fixtures where scores are
// prescribed rather than computed.
func FromScores(n int, scores cluster.Scores, tau float64) *Candidates {
	var pairs []blocking.ScoredPair
	for p, f := range scores {
		if f > tau {
			pairs = append(pairs, blocking.ScoredPair{Pair: p, Score: f})
		}
	}
	blocking.SortScored(pairs)
	return newCandidates(n, pairs)
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

// Index returns p's position in Pairs, and false when p is not a
// candidate (pruned, non-canonical, or out of range). It is a binary
// search in p.Lo's row of the pair index and allocates nothing; safe
// for concurrent use.
func (c *Candidates) Index(p record.Pair) (int32, bool) {
	if p.Lo < 0 || int(p.Lo) >= len(c.off)-1 || uint64(p.Hi) > math.MaxUint32 {
		return 0, false
	}
	start := c.off[p.Lo]
	k, ok := slices.BinarySearch(c.hi[start:c.off[p.Lo+1]], uint32(p.Hi))
	if !ok {
		return 0, false
	}
	return c.pos[int(start)+k], true
}

// Contains reports whether p survived pruning.
func (c *Candidates) Contains(p record.Pair) bool {
	_, ok := c.Index(p)
	return ok
}

// Score returns the machine score f of a pair (0 if pruned).
func (c *Candidates) Score(p record.Pair) float64 {
	if i, ok := c.Index(p); ok {
		return c.Pairs[i].Score
	}
	return 0
}

// Machine returns the candidate scores as a fresh map, for the
// machine-only consumers that take a cluster.Scores (BOEM, the
// agglomerative baseline); pairs outside it were pruned and have f = 0
// by convention. The crowd pipeline reads scores through Score and
// Index instead.
func (c *Candidates) Machine() cluster.Scores {
	m := make(cluster.Scores, len(c.Pairs))
	for _, sp := range c.Pairs {
		m[sp.Pair] = sp.Score
	}
	return m
}
