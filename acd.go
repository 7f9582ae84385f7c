// Package acd is the public facade of the ACD (Adaptive Crowd-Based
// Deduplication) library, a from-scratch implementation of Wang, Xiao
// and Lee's SIGMOD 2015 paper. It wires the three phases — machine
// pruning, crowd-backed cluster generation (PC-Pivot), and crowd-backed
// cluster refinement (PC-Refine) — behind a single call:
//
//	result, err := acd.Deduplicate(records, crowdFn, acd.Options{})
//
// The crowd is abstracted as a function from a record pair to the
// fraction of workers who consider it a duplicate; plug in a live
// crowdsourcing platform, the bundled simulator (internal/crowd), or
// a fixed oracle for tests. For the individual phases, the baselines,
// and the experiment harness, see the internal packages (this module's
// commands and examples demonstrate them).
package acd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/similarity"
)

// Record is a record to be deduplicated: a bag of named string fields.
type Record struct {
	// Fields holds the record's attributes, e.g. {"name": ..., "city": ...}.
	Fields map[string]string
}

// CrowdFunc answers one record pair with the crowd's confidence in
// [0, 1] that the two records are duplicates (e.g. the fraction of a
// majority vote). Indices refer to the records slice passed to
// Deduplicate. The function may block while humans answer.
type CrowdFunc func(i, j int) float64

// Options configures Deduplicate. The zero value reproduces the paper's
// settings: Jaccard similarity, τ = 0.3, ε = 0.1, T = N_m/8, 3 workers
// with 20 pairs per HIT at 2 cents.
type Options struct {
	// Tau is the pruning threshold: pairs with machine similarity ≤ Tau
	// are assumed non-duplicates and never shown to the crowd.
	Tau float64
	// Metric names the machine similarity: "jaccard" (default),
	// "levenshtein", "jaro-winkler", "cosine", "ngram", "overlap",
	// "phonetic", or "combined".
	Metric string
	// Epsilon bounds the fraction of wasted crowd questions during
	// cluster generation (Equation 4 of the paper).
	Epsilon float64
	// RefineX sets the refinement batch budget T = N_m/RefineX.
	RefineX int
	// SkipRefinement stops after cluster generation (the paper's
	// PC-Pivot-only variant).
	SkipRefinement bool
	// Workers, PairsPerHIT and CentsPerHIT describe the crowd setting
	// for cost accounting.
	Workers     int
	PairsPerHIT int
	CentsPerHIT int
	// Seed drives the algorithm's random choices; equal seeds and crowd
	// answers give identical results.
	Seed int64
	// Parallelism sizes the worker pool of the pruning phase's
	// similarity join: 0 (or negative) means one worker per CPU, n ≥ 1
	// uses exactly n workers (1 is one worker of the same code). The
	// setting changes speed only — pruning output is byte-identical at
	// every level, so results stay reproducible.
	Parallelism int
	// Market, when set, routes crowd questions through a simulated
	// heterogeneous marketplace instead of a single uniform channel. The
	// value is a fleet spec (see internal/market, e.g.
	// "fast:1:20:0.12;careful:6:10:0.02;machine:0:0:0.35:machine", or
	// "default" for the reference mixed fleet):
	// backends with per-HIT prices, batch sizes, and calibrated error
	// rates, each answering from crowdFn with its error rate applied.
	// Every question is bought from the backend whose answer carries the
	// best information value per cent, questions are packed into
	// multi-pair HITs ordered likely-duplicates-first, and transitively
	// implied pairs are answered for free. HITs and Cents in the Result
	// reflect what the marketplace actually spent.
	Market string
	// MarketBudget caps marketplace spend in cents: once a new HIT no
	// longer fits, questions degrade to the machine prior. Zero or
	// negative means unlimited. Ignored without Market.
	MarketBudget int
	// OnProgress, when set, is called after every crowd iteration with
	// the running totals — useful feedback during long live-crowd runs.
	OnProgress func(pairsAsked, iterations int)
	// Context, when set, makes the campaign cancellable: cancelling it
	// stops the run cleanly mid-crowd-iteration and Deduplicate returns
	// the context's error. Nil means the run cannot be cancelled.
	Context context.Context
	// Trace, when set, receives a JSONL event stream as the run
	// progresses (one pruning summary, one event per PC-Pivot round, one
	// per refinement batch). Tracing never changes the result. The
	// aggregate counters are always collected and returned in
	// Result.Metrics regardless of this setting.
	Trace io.Writer
}

// Result is the outcome of a Deduplicate call.
type Result struct {
	// Clusters maps each cluster to the indices (into the input slice)
	// of its records. Clusters are disjoint and cover every record.
	Clusters [][]int
	// ClusterOf maps each record index to its cluster's position in
	// Clusters.
	ClusterOf []int
	// PairsAsked is the number of distinct record pairs sent to the
	// crowd.
	PairsAsked int
	// Iterations is the number of crowd round-trips (batches of HITs).
	Iterations int
	// HITs and Cents are the estimated task count and cost under the
	// configured crowd setting.
	HITs  int
	Cents int
	// CandidatePairs is the size of the candidate set after pruning.
	CandidatePairs int
	// Metrics is the run's full observability snapshot: per-phase
	// counters (pruning funnel, PC-Pivot rounds and wasted pairs, refine
	// operations, crowd accounting), value distributions, and phase
	// timings. See internal/obs for the schema and the metric name
	// reference in the README.
	Metrics obs.Metrics
}

// Deduplicate clusters records into groups of duplicates using machine
// pruning plus the crowd. It returns an error for empty input, an
// unknown metric, or out-of-range options.
func Deduplicate(records []Record, crowdFn CrowdFunc, opts Options) (*Result, error) {
	if len(records) == 0 {
		return nil, errors.New("acd: no records")
	}
	if crowdFn == nil {
		return nil, errors.New("acd: nil crowd function")
	}
	if opts.Tau < 0 || opts.Tau >= 1 {
		return nil, fmt.Errorf("acd: Tau %v out of [0, 1)", opts.Tau)
	}
	if opts.Epsilon < 0 || opts.Epsilon > 1 {
		return nil, fmt.Errorf("acd: Epsilon %v out of [0, 1]", opts.Epsilon)
	}
	metricName := opts.Metric
	if metricName == "" {
		metricName = "jaccard"
	}
	var metric similarity.Metric
	if metricName != "jaccard" {
		if metric = similarity.ByName(metricName); metric == nil {
			return nil, fmt.Errorf("acd: unknown metric %q", metricName)
		}
	}

	rec := obs.New()
	if opts.Trace != nil {
		rec.SetTrace(opts.Trace)
	}

	recs := make([]record.Record, len(records))
	for i, r := range records {
		recs[i] = record.New(record.ID(i), r.Fields)
	}
	cands := pruning.Prune(recs, pruning.Options{
		Tau:         opts.Tau,
		Metric:      metric,
		Parallelism: opts.Parallelism,
		Obs:         rec,
	})

	cfg := crowd.Config{
		Workers:     orDefault(opts.Workers, 3),
		PairsPerHIT: orDefault(opts.PairsPerHIT, 20),
		CentsPerHIT: orDefault(opts.CentsPerHIT, 2),
	}
	base := func(p record.Pair) float64 { return crowdFn(int(p.Lo), int(p.Hi)) }
	var source crowd.Source = crowd.SourceFunc{Fn: base, Setting: cfg}
	if opts.Market != "" {
		backends, err := market.Fleet(opts.Market, base, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("acd: %w", err)
		}
		source = market.New(market.Config{
			Backends:     backends,
			BudgetCents:  market.FlagBudget(opts.MarketBudget),
			Order:        market.OrderConfidence,
			ShortCircuit: true,
			Prior:        cands.Score,
			Seed:         opts.Seed,
		})
	}
	var observe func([]record.Pair, []float64) error
	if opts.OnProgress != nil {
		asked, iterations := 0, 0
		observe = func(fresh []record.Pair, _ []float64) error {
			asked += len(fresh)
			iterations++
			opts.OnProgress(asked, iterations)
			return nil
		}
	}

	out := core.ACD(cands, source, core.Config{
		Epsilon:        opts.Epsilon,
		RefineX:        opts.RefineX,
		SkipRefinement: opts.SkipRefinement,
		Seed:           opts.Seed,
		Obs:            rec,
		Ctx:            opts.Context,
		Observe:        observe,
	})
	if out.Err != nil {
		return nil, fmt.Errorf("acd: campaign aborted: %w", out.Err)
	}

	res := &Result{
		ClusterOf:      make([]int, len(records)),
		PairsAsked:     out.Stats.Pairs,
		Iterations:     out.Stats.Iterations,
		HITs:           out.Stats.HITs,
		Cents:          out.Stats.Cents,
		CandidatePairs: len(cands.Pairs),
		Metrics:        rec.Snapshot(),
	}
	for ci, set := range out.Clusters.Sets() {
		members := make([]int, len(set))
		for i, r := range set {
			members[i] = int(r)
			res.ClusterOf[r] = ci
		}
		res.Clusters = append(res.Clusters, members)
	}
	return res, nil
}

// F1 computes pairwise precision, recall and F1 of a result against
// ground-truth entity labels (entity[i] is the true entity of record i).
func (r *Result) F1(entity []int) (precision, recall, f1 float64) {
	sets := make([][]record.ID, len(r.Clusters))
	for i, members := range r.Clusters {
		ids := make([]record.ID, len(members))
		for j, m := range members {
			ids[j] = record.ID(m)
		}
		sets[i] = ids
	}
	c, err := cluster.FromSets(len(r.ClusterOf), sets)
	if err != nil {
		panic("acd: corrupt result: " + err.Error())
	}
	e := cluster.Evaluate(c, entity)
	return e.Precision, e.Recall, e.F1
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
