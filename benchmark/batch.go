package main

import (
	"fmt"
	"math/rand"
	"time"

	"acd"
	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/refine"
)

// batchPhase is one Deduplicate campaign of batch-dedup.
type batchPhase struct {
	name   string // "sparse", "dense-1", …: prefixes the campaign's checks
	kind   string // "sparse" or "dense": keys the per-layer figures
	market string // fleet spec; empty = the uniform three-worker crowd
	data   *dataset.Dataset
}

// batchMinF1 is the accuracy floor each campaign must reach.
const batchMinF1 = 0.95

// batchPhases draws the datasets: one sparse campaign (many small
// entities, the similarity join dominates) and DenseCampaigns dense ones
// (a few large even-sized entities through the marketplace, refinement
// over the fleet's noisier answers dominates). PC-Refine's cost on one
// dense dataset swings by tens of per cent with the seed; summed over
// many small campaigns it settles.
func batchPhases(sz sizes, seed int64) ([]batchPhase, error) {
	sparse, err := dataset.Synthetic(dataset.SyntheticConfig{
		Records: sz.SparseRecords, Entities: sz.SparseEntities, Skew: sz.SparseSkew, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	phases := []batchPhase{{name: "sparse", kind: "sparse", data: sparse}}
	for i := 1; i <= sz.DenseCampaigns; i++ {
		dense, err := dataset.Synthetic(dataset.SyntheticConfig{
			Records: sz.DenseRecords, Entities: sz.DenseEntities, Seed: seed + int64(i)<<32,
		})
		if err != nil {
			return nil, err
		}
		phases = append(phases, batchPhase{name: fmt.Sprintf("dense-%d", i), kind: "dense", market: market.DefaultFleetSpec, data: dense})
	}
	return phases, nil
}

// batchHash digests every campaign's records; the oracle and the
// hand-off probe follow from them and the seed.
func batchHash(phases []batchPhase) string {
	var pool []payload
	for _, ph := range phases {
		for _, r := range ph.data.Records {
			pool = append(pool, payload{fields: r.Fields, entity: r.Entity})
		}
	}
	return (&plan{pool: pool}).hash()
}

// campaign is the outcome of one Deduplicate run, traced or not.
type campaign struct {
	clusters   [][]int
	pairs      int
	iterations int
	cents      int
	metrics    obs.Metrics
	oracle     int64 // invocations of the benchmark's own oracle
}

// runFacade runs one campaign through the public facade with the
// paper's defaults.
func runFacade(ph batchPhase, seed int64) (*campaign, error) {
	orc := &oracle{truth: ph.data.Truth(), seed: seed}
	recs := make([]acd.Record, len(ph.data.Records))
	for i, r := range ph.data.Records {
		recs[i] = acd.Record{Fields: r.Fields}
	}
	res, err := acd.Deduplicate(recs, orc.score, acd.Options{Seed: seed, Market: ph.market})
	if err != nil {
		return nil, err
	}
	return &campaign{
		clusters: res.Clusters, pairs: res.PairsAsked, iterations: res.Iterations,
		cents: res.Cents, metrics: res.Metrics, oracle: orc.calls,
	}, nil
}

// timedSource wraps a crowd source, timing every batch it answers and
// forwarding the optional interfaces the session looks for, so the
// traced campaign books exactly what the untraced one does.
type timedSource struct {
	inner   crowd.Source
	tr      *tracer
	phase   string
	busy    time.Duration
	batches int
	pairs   int
}

func (s *timedSource) Score(p record.Pair) float64 { return s.ScoreBatch([]record.Pair{p})[0] }

func (s *timedSource) Config() crowd.Config { return s.inner.Config() }

func (s *timedSource) ScoreBatch(pairs []record.Pair) []float64 {
	start := time.Now()
	var out []float64
	if b, ok := s.inner.(crowd.BatchSource); ok {
		out = b.ScoreBatch(pairs)
	} else {
		out = make([]float64, len(pairs))
		for i, p := range pairs {
			out[i] = s.inner.Score(p)
		}
	}
	d := time.Since(start)
	s.busy += d
	s.batches++
	s.pairs += len(pairs)
	s.tr.add(span{Rung: "batch", Layer: "crowd", Name: s.phase + ".batch", Seq: s.batches}, start, d)
	return out
}

func (s *timedSource) Bill() (hits, cents int, ok bool) {
	if b, ok := s.inner.(crowd.Biller); ok {
		return b.Bill()
	}
	return 0, 0, false
}

func (s *timedSource) VoteCount(p record.Pair) int {
	if v, ok := s.inner.(crowd.VoteCounter); ok {
		return v.VoteCount(p)
	}
	return s.inner.Config().Workers
}

func (s *timedSource) SetRecorder(rec *obs.Recorder) {
	if rs, ok := s.inner.(crowd.RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

func (s *timedSource) Recorder() *obs.Recorder {
	if rc, ok := s.inner.(crowd.RecorderCarrier); ok {
		return rc.Recorder()
	}
	return nil
}

// layerTimes is where a traced campaign's wall time went.
type layerTimes struct {
	pruning, pivot, refine time.Duration
	source                 time.Duration // inside the outermost crowd source
	oracle                 time.Duration // inside the benchmark's own oracle
	batches, pairs         int
	refinePairs            int // fresh questions PC-Refine asked
}

// runLayers replays one campaign layer by layer — pruning.Prune,
// core.PCPivot, refine.PCRefine, wired exactly as the facade wires
// them — timing each call and the crowd source beneath them.
func runLayers(ph batchPhase, seed int64, tr *tracer) (*campaign, layerTimes, error) {
	var lt layerTimes
	orc := &oracle{truth: ph.data.Truth(), seed: seed}
	rec := obs.New()
	timeIt := func(layer string, into *time.Duration, f func()) {
		start := time.Now()
		f()
		*into = time.Since(start)
		tr.add(span{Rung: "batch", Layer: layer, Name: ph.name}, start, *into)
	}

	var cands *pruning.Candidates
	timeIt("pruning", &lt.pruning, func() {
		cands = pruning.Prune(ph.data.Records, pruning.Options{Obs: rec})
	})

	base := func(p record.Pair) float64 {
		start := time.Now()
		fc := orc.score(int(p.Lo), int(p.Hi))
		lt.oracle += time.Since(start)
		return fc
	}
	var inner crowd.Source = crowd.SourceFunc{Fn: base, Setting: crowd.ThreeWorker(0)}
	if ph.market != "" {
		backends, err := market.Fleet(ph.market, base, seed)
		if err != nil {
			return nil, lt, err
		}
		inner = market.New(market.Config{
			Backends: backends, BudgetCents: market.Unlimited,
			Order: market.OrderConfidence, ShortCircuit: true,
			Prior: cands.Score, Seed: seed,
		})
	}
	src := &timedSource{inner: inner, tr: tr, phase: ph.name}
	sess := crowd.NewSession(src)
	sess.SetRecorder(rec)

	var clusters *cluster.Clustering
	timeIt("core", &lt.pivot, func() {
		clusters, _ = core.PCPivot(cands, sess, core.DefaultEpsilon, rand.New(rand.NewSource(seed)))
	})
	afterPivot := sess.Stats().Pairs
	timeIt("refine", &lt.refine, func() {
		clusters = refine.PCRefine(clusters, cands, sess, refine.DefaultX)
	})
	lt.refinePairs = sess.Stats().Pairs - afterPivot
	if err := sess.Err(); err != nil {
		return nil, lt, err
	}
	lt.source, lt.batches, lt.pairs = src.busy, src.batches, src.pairs

	st := sess.Stats()
	c := &campaign{pairs: st.Pairs, iterations: st.Iterations, cents: st.Cents, metrics: rec.Snapshot(), oracle: orc.calls}
	for _, set := range clusters.Sets() {
		members := make([]int, len(set))
		for i, r := range set {
			members[i] = int(r)
		}
		c.clusters = append(c.clusters, members)
	}
	return c, lt, nil
}

// checkCampaign enforces batch-dedup's per-campaign conditions and
// returns the campaign's F1.
func checkCampaign(res *result, sz sizes, ph batchPhase, c *campaign) float64 {
	truth := ph.data.Truth()
	perr := checkPartition(c.clusters, len(truth))
	res.check(ph.name+"-partition", perr == nil, "%v", perr)
	f1 := pairF1(c.clusters, truth)
	floor := sz.f1Floor(batchMinF1)
	res.check(ph.name+"-f1-floor", f1 >= floor, "f1 %.4f below %.2f", f1, floor)
	answered := c.metrics.Counters[crowd.MetricQuestionsAnswered]
	// Every answered question is one oracle invocation: a call into the
	// benchmark's own oracle (the uniform crowd, or a marketplace
	// backend consulting it), or an answer the marketplace produced
	// itself (short circuit, machine prior) and counted in the recorder.
	invoked := c.oracle + c.metrics.Counters[crowd.MetricOracleInvocations]
	res.check(ph.name+"-question-ledger", int64(c.pairs) == answered && answered == invoked,
		"pairs asked %d, questions answered %d, oracle invocations %d", c.pairs, answered, invoked)
	return f1
}

// runBatch runs batch-dedup: the campaigns through the facade, then —
// traced — the same campaigns layer by layer, or — untraced — the
// hand-off probe that supplies the serving figures.
func runBatch(e *env, res *result) error {
	var phases []batchPhase
	err := timeSetup(e, res, func() (err error) {
		phases, err = batchPhases(e.sz, e.seed)
		return err
	})
	if err != nil {
		return err
	}
	res.PlanHash = batchHash(phases)

	// Measured phase: the campaigns, back to back.
	cpu0, start := selfCPUSeconds(), time.Now()
	var runs []*campaign
	for _, ph := range phases {
		c, err := runFacade(ph, e.seed)
		res.Attempted++
		if err != nil {
			res.Failed++
			return fmt.Errorf("%s campaign: %w", ph.name, err)
		}
		runs = append(runs, c)
	}
	wall := time.Since(start)
	res.Metrics["wall_s"] = wall.Seconds()
	res.Metrics["server_cpu_s"] = selfCPUSeconds() - cpu0

	f1, pairs, iters, cents, records := 1.0, 0, 0, 0, 0
	for i, ph := range phases {
		if f := checkCampaign(res, e.sz, ph, runs[i]); f < f1 {
			f1 = f
		}
		pairs += runs[i].pairs
		iters += runs[i].iterations
		cents += runs[i].cents
		records += len(ph.data.Records)
	}
	res.Metrics["f1"] = f1
	res.Metrics["crowd_pairs"] = float64(pairs)
	res.Metrics["crowd_iterations"] = float64(iters)
	res.Metrics["crowd_cents"] = float64(cents)
	res.Metrics["records_per_s"] = float64(records) / wall.Seconds()

	if e.tr != nil {
		return traceBatch(e, res, phases, runs, wall)
	}
	return probeHandoff(e, phases[0].data, res)
}

// probeHandoff supplies batch-dedup's serving figures once the
// campaigns are done: some of the sparse campaign's records (in shuffled
// order — the dense records would make the first resolve a campaign of
// its own) go into a journaled acdserve through the same probe every
// other workload ends with, and the server is killed and restarted.
func probeHandoff(e *env, d *dataset.Dataset, res *result) error {
	spec := servingSpec{name: "batch-dedup", probe: [numOpKinds]bool{true, true, true, true}}
	spec.plan = func(sz sizes, seed int64) (*plan, error) {
		pool := shuffledPool(d, seed)
		if n := (sz.ProbeRecords + sz.ProbeResolves) * recordsPerPost; n < len(pool) {
			pool = pool[:n]
		}
		return &plan{pool: pool}, nil
	}
	s, err := setupServing(e, spec)
	if err != nil {
		return err
	}
	defer s.close()
	pr := s.runProbe(res)
	fillLatencyMetrics(res, pr.latMS)
	return s.restartCycles(e, spec, res)
}

// traceBatch replays every campaign layer by layer and books the
// per-layer figures; the untraced runs give the overhead baseline and
// the result the traced runs must reproduce.
func traceBatch(e *env, res *result, phases []batchPhase, untraced []*campaign, untracedWall time.Duration) error {
	var traced time.Duration
	var total layerTimes
	counters := make(map[string]int64)
	for i, ph := range phases {
		start := time.Now()
		c, lt, err := runLayers(ph, e.seed, e.tr)
		if err != nil {
			return fmt.Errorf("traced %s campaign: %w", ph.name, err)
		}
		traced += time.Since(start)
		res.check(ph.name+"-trace-equivalent", c.pairs == untraced[i].pairs && c.iterations == untraced[i].iterations && c.cents == untraced[i].cents,
			"traced run asked %d pairs in %d iterations for %d cents, untraced %d/%d/%d",
			c.pairs, c.iterations, c.cents, untraced[i].pairs, untraced[i].iterations, untraced[i].cents)
		res.Metrics["pruning.seconds."+ph.kind] += lt.pruning.Seconds()
		total.pivot += lt.pivot
		total.refine += lt.refine
		total.source += lt.source
		total.oracle += lt.oracle
		total.batches += lt.batches
		total.pairs += lt.pairs
		total.refinePairs += lt.refinePairs
		if ph.market != "" {
			res.Metrics["market.self_s"] += (lt.source - lt.oracle).Seconds()
		}
		for k, v := range c.metrics.Counters {
			counters[k] += v
		}
		counters[crowd.MetricOracleInvocations] += c.oracle
	}
	m := res.Metrics
	m["trace.overhead_frac"] = traced.Seconds()/untracedWall.Seconds() - 1
	// The crowd source runs inside PC-Pivot and PC-Refine, so their
	// times include crowd.source_s.
	m["core.pivot_s"] = total.pivot.Seconds()
	m["refine.seconds"] = total.refine.Seconds()
	m["crowd.source_s"] = total.source.Seconds()
	m["crowd.batches"] = float64(total.batches)
	m["crowd.pairs"] = float64(total.pairs)
	m["refine.pairs_asked"] = float64(total.refinePairs)
	fillPipelineCounters(m, counters)
	return nil
}

// fillPipelineCounters copies the pipeline's exact counts — they come
// from the obs.Recorder snapshot of whichever run produced them — into
// the per-layer metrics.
func fillPipelineCounters(m map[string]float64, c map[string]int64) {
	for metric, counter := range map[string]string{
		"pruning.pairs_verified":   "pruning/pairs_verified",
		"pruning.pairs_emitted":    "pruning/pairs_emitted",
		"core.pivot_rounds":        core.MetricRounds,
		"core.pairs_issued":        core.MetricPairsIssued,
		"core.pairs_wasted":        core.MetricPairsWasted,
		"refine.ops_applied":       refine.MetricOpsApplied,
		"crowd.questions_cached":   crowd.MetricQuestionsCached,
		"crowd.oracle_invocations": crowd.MetricOracleInvocations,
		"market.routed":            market.MetricRouted,
		"market.short_circuited":   market.MetricShortCircuited,
		"market.spend_cents":       market.MetricSpendCents,
		"market.fallbacks":         market.MetricFallbacks,
	} {
		m[metric] += float64(c[counter])
	}
}
