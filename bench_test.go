// Package acd_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Section 6 and Appendix C):
//
//	BenchmarkTable3              Table 3  (dataset + crowd characteristics)
//	BenchmarkFigure5Iterations   Fig 5a-c (PC-Pivot crowd iterations vs ε)
//	BenchmarkFigure5Pairs        Fig 5d   (PC-Pivot crowdsourced pairs vs ε)
//	BenchmarkFigure6F1           Fig 6    (F1 of all methods)
//	BenchmarkFigure7Pairs        Fig 7    (crowdsourced pairs of all methods)
//	BenchmarkFigure8Iterations   Fig 8    (crowd iterations of all methods)
//	BenchmarkFigure10            Fig 10   (ACD vs refinement budget T = N_m/x)
//
// Each benchmark reports the figure's series via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the same rows the paper plots.
// Figures 6-8 share the same underlying runs (cached per dataset and
// worker setting), exactly as in the paper, where one experiment feeds
// all three plots. The remaining benchmarks measure the performance of
// the core algorithms themselves.
package acd_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"acd/internal/blocking"
	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/experiments"
	"acd/internal/machine"
	"acd/internal/market"
	"acd/internal/pruning"
	"acd/internal/quality"
	"acd/internal/refine"
)

const benchSeed = 1

var (
	instMu    sync.Mutex
	instances = map[string]*experiments.Instance{}
	compCache = map[string][]experiments.MethodResult{}
)

func instance(b *testing.B, name string) *experiments.Instance {
	b.Helper()
	return instanceSeed(b, name, benchSeed)
}

// instanceSeed returns the cached instance for (name, seed), building it
// on first use. Shared by the benchmarks and the golden determinism
// tests so one `go test` run prepares each dataset at most once per
// seed.
func instanceSeed(tb testing.TB, name string, seed int64) *experiments.Instance {
	tb.Helper()
	key := fmt.Sprintf("%s@%d", name, seed)
	instMu.Lock()
	defer instMu.Unlock()
	if in, ok := instances[key]; ok {
		return in
	}
	in := experiments.MustInstance(name, seed)
	instances[key] = in
	return in
}

func comparison(b *testing.B, name string, workers int) []experiments.MethodResult {
	b.Helper()
	key := fmt.Sprintf("%s/%dw", name, workers)
	in := instance(b, name)
	instMu.Lock()
	defer instMu.Unlock()
	if rows, ok := compCache[key]; ok {
		return rows
	}
	rows := experiments.Comparison(in, workers)
	compCache[key] = rows
	return rows
}

// BenchmarkTable3 regenerates Table 3 and reports each dataset's
// candidate pairs and crowd error rates.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(benchSeed)
		for _, r := range rows {
			b.ReportMetric(float64(r.CandidatePairs), r.Dataset+"_pairs")
			b.ReportMetric(100*r.ErrorRate3W, r.Dataset+"_err3w_%")
			b.ReportMetric(100*r.ErrorRate5W, r.Dataset+"_err5w_%")
		}
	}
}

func benchFigure5(b *testing.B, metric func(experiments.Figure5Point) float64, ref func(experiments.Figure5Result) float64, unit string) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			in := instance(b, name)
			for i := 0; i < b.N; i++ {
				res := experiments.Figure5(in, 3)
				for _, p := range res.Points {
					b.ReportMetric(metric(p), fmt.Sprintf("eps%.1f_%s", p.Epsilon, unit))
				}
				b.ReportMetric(ref(res), "CrowdPivot_"+unit)
			}
		})
	}
}

// BenchmarkFigure5Iterations regenerates Figures 5(a)-5(c): PC-Pivot
// crowd iterations across ε, with the sequential Crowd-Pivot reference.
func BenchmarkFigure5Iterations(b *testing.B) {
	benchFigure5(b,
		func(p experiments.Figure5Point) float64 { return p.Iterations },
		func(r experiments.Figure5Result) float64 { return r.CrowdPivotIterations },
		"iters")
}

// BenchmarkFigure5Pairs regenerates Figure 5(d): pairs issued across ε.
func BenchmarkFigure5Pairs(b *testing.B) {
	benchFigure5(b,
		func(p experiments.Figure5Point) float64 { return p.Pairs },
		func(r experiments.Figure5Result) float64 { return r.CrowdPivotPairs },
		"pairs")
}

func benchComparison(b *testing.B, metric func(experiments.MethodResult) (float64, bool), unit string) {
	for _, name := range experiments.DatasetNames {
		for _, workers := range []int{3, 5} {
			b.Run(fmt.Sprintf("%s-%dw", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows := comparison(b, name, workers)
					for _, r := range rows {
						if v, ok := metric(r); ok {
							b.ReportMetric(v, r.Method+"_"+unit)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFigure6F1 regenerates Figure 6: the F1-measure of every
// method on every dataset under both worker settings.
func BenchmarkFigure6F1(b *testing.B) {
	benchComparison(b, func(r experiments.MethodResult) (float64, bool) { return r.F1, true }, "F1")
}

// BenchmarkFigure7Pairs regenerates Figure 7: the number of record pairs
// crowdsourced by every method.
func BenchmarkFigure7Pairs(b *testing.B) {
	benchComparison(b, func(r experiments.MethodResult) (float64, bool) { return r.Pairs, true }, "pairs")
}

// BenchmarkFigure8Iterations regenerates Figure 8: crowd iterations of
// every method; TransNode is omitted as in the paper (no batching).
func BenchmarkFigure8Iterations(b *testing.B) {
	benchComparison(b, func(r experiments.MethodResult) (float64, bool) {
		return r.Iterations, r.HasIterations
	}, "iters")
}

// BenchmarkFigure10 regenerates Figures 10(a)-10(c): full ACD under the
// refinement budgets T = N_m/x for x in {2, 4, 8, 16}.
func BenchmarkFigure10(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			in := instance(b, name)
			for i := 0; i < b.N; i++ {
				for _, p := range experiments.Figure10(in, 3) {
					b.ReportMetric(p.Pairs, fmt.Sprintf("x%d_pairs", p.X))
					b.ReportMetric(p.F1, fmt.Sprintf("x%d_F1", p.X))
					b.ReportMetric(p.Iterations, fmt.Sprintf("x%d_iters", p.X))
				}
			}
		})
	}
}

// BenchmarkAblationRefineVariants reports the refinement-strategy
// ablation (PC-Refine vs Crowd-Refine vs identity estimator vs
// Crowd-BOEM) on the Product dataset.
func BenchmarkAblationRefineVariants(b *testing.B) {
	in := instance(b, "Product")
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.RefineVariants(in, 3) {
			b.ReportMetric(r.F1, r.Variant+"_F1")
			b.ReportMetric(r.Pairs, r.Variant+"_pairs")
			b.ReportMetric(r.Iterations, r.Variant+"_iters")
		}
	}
}

// BenchmarkAblationAdaptiveWorkers reports the adaptive worker
// allocation ablation (the paper's Section 8 future work) on every
// dataset.
func BenchmarkAblationAdaptiveWorkers(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			in := instance(b, name)
			for i := 0; i < b.N; i++ {
				for _, r := range experiments.AdaptiveWorkers(in, benchSeed) {
					b.ReportMetric(100*r.ErrorRate, r.Allocation+"_err_%")
					b.ReportMetric(r.VotesPerPair, r.Allocation+"_votes")
					b.ReportMetric(r.F1, r.Allocation+"_F1")
				}
			}
		})
	}
}

// BenchmarkAblationRobustness reports the error-sensitivity sweep on
// Paper: F1 of ACD vs the transitivity methods across worker error
// rates.
func BenchmarkAblationRobustness(b *testing.B) {
	in := instance(b, "Paper")
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.Robustness(in, benchSeed) {
			tag := fmt.Sprintf("err%.0f_", 100*p.WorkerError)
			b.ReportMetric(p.F1["ACD"], tag+"ACD_F1")
			b.ReportMetric(p.F1["TransM"], tag+"TransM_F1")
		}
	}
}

// BenchmarkAblationAggregation reports the majority-vs-Dawid-Skene vote
// aggregation ablation on Product.
func BenchmarkAblationAggregation(b *testing.B) {
	in := instance(b, "Product")
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Aggregation(in, benchSeed) {
			b.ReportMetric(100*r.ErrorRate, r.Aggregation+"_err_%")
			b.ReportMetric(r.F1, r.Aggregation+"_F1")
		}
	}
}

// ---------------------------------------------------------------------------
// Performance benchmarks of the core algorithms.

// BenchmarkPruningJaccardJoin measures the prefix-filtered similarity
// join of the pruning phase on each dataset.
func BenchmarkPruningJaccardJoin(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			d, _ := dataset.ByName(name, benchSeed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = pruning.Prune(d.Records, pruning.Options{})
			}
		})
	}
}

// BenchmarkNaiveJoin measures the quadratic reference join on the
// smallest dataset, for comparison with the indexed join.
func BenchmarkNaiveJoin(b *testing.B) {
	d, _ := dataset.ByName("Restaurant", benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blocking.NaiveJoin(d.Records, nil, 0.3)
	}
}

// BenchmarkPCPivot measures one cluster generation phase (no
// refinement) on each dataset with the 3-worker answers.
func BenchmarkPCPivot(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			in := instance(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Session and RNG construction are setup, not the
				// algorithm under test — keep them off the clock.
				b.StopTimer()
				sess := crowd.NewSession(in.Answers(3))
				rng := rand.New(rand.NewSource(int64(i)))
				b.StartTimer()
				_, _ = core.PCPivot(in.Cands, sess, core.DefaultEpsilon, rng)
			}
		})
	}
}

// BenchmarkPCRefine measures one cluster refinement phase on each
// dataset, starting from a fresh PC-Pivot clustering. The dense row is
// one campaign of the repository benchmark's batch-dedup shape: 1 500
// records over 10 even entities, answered through a marketplace over
// market.DefaultFleetSpec with transitive short-circuiting, as
// acd.Deduplicate wires it.
func BenchmarkPCRefine(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			in := instance(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess := crowd.NewSession(in.Answers(3))
				rng := rand.New(rand.NewSource(int64(i)))
				c, _ := core.PCPivot(in.Cands, sess, core.DefaultEpsilon, rng)
				b.StartTimer()
				_ = refine.PCRefine(c, in.Cands, sess, refine.DefaultX)
			}
		})
	}
	b.Run("dense", func(b *testing.B) {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{Records: 1500, Entities: 10, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		cands := pruning.Prune(d.Records, pruning.Options{})
		answers := crowd.BuildAnswers(cands.PairList(), d.TruthFn(), crowd.UniformDifficulty(0.05), crowd.ThreeWorker(benchSeed))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			backends, err := market.Fleet(market.DefaultFleetSpec, answers.Score, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			sess := crowd.NewSession(market.New(market.Config{
				Backends: backends, BudgetCents: market.Unlimited,
				Order: market.OrderConfidence, ShortCircuit: true,
				Prior: cands.Score, Seed: benchSeed,
			}))
			c, _ := core.PCPivot(cands, sess, core.DefaultEpsilon, rand.New(rand.NewSource(benchSeed)))
			b.StartTimer()
			_ = refine.PCRefine(c, cands, sess, refine.DefaultX)
		}
	})
}

// BenchmarkMachinePivot measures the machine-only Pivot baseline over
// the candidate scores.
func BenchmarkMachinePivot(b *testing.B) {
	in := instance(b, "Paper")
	scores := in.Cands.Machine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		_ = machine.Pivot(in.Cands.N, scores, rng)
	}
}

// BenchmarkLambda measures the sparse Λ computation on a Paper-sized
// clustering.
func BenchmarkLambda(b *testing.B) {
	in := instance(b, "Paper")
	rng := rand.New(rand.NewSource(7))
	scores := in.Cands.Machine()
	c := machine.Pivot(in.Cands.N, scores, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.Lambda(c, scores)
	}
}

// BenchmarkEvaluate measures pairwise P/R/F1 scoring.
func BenchmarkEvaluate(b *testing.B) {
	in := instance(b, "Product")
	rng := rand.New(rand.NewSource(7))
	c := machine.Pivot(in.Cands.N, in.Cands.Machine(), rng)
	truth := in.Data.Truth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.Evaluate(c, truth)
	}
}

// BenchmarkBuildAnswers measures the crowd simulator drawing a full
// answer set for the largest candidate set.
func BenchmarkBuildAnswers(b *testing.B) {
	in := instance(b, "Paper")
	truth := in.Data.TruthFn()
	diff := crowd.UniformDifficulty(0.1)
	pairs := in.Cands.PairList()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crowd.BuildAnswers(pairs, truth, diff, crowd.ThreeWorker(int64(i)))
	}
}

// BenchmarkMinHashJoin measures the LSH candidate generator against the
// exact join's dataset (see BenchmarkPruningJaccardJoin for the latter).
func BenchmarkMinHashJoin(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			d, _ := dataset.ByName(name, benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = blocking.MinHashJoin(d.Records, pruning.DefaultTau, blocking.MinHashConfig{Seed: 1})
			}
		})
	}
}

// BenchmarkAgglomerative measures the average-linkage clustering that
// CrowdER+ and GCER finish with, over the Paper-sized candidate graph.
func BenchmarkAgglomerative(b *testing.B) {
	in := instance(b, "Paper")
	scores := make(cluster.Scores, len(in.Cands.Pairs))
	for _, sp := range in.Cands.Pairs {
		scores[sp.Pair] = in.Answers(3).Score(sp.Pair)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = machine.Agglomerative(in.Cands.N, scores, 0.5)
	}
}

// BenchmarkDawidSkene measures worker-quality EM over a full Product
// vote collection.
func BenchmarkDawidSkene(b *testing.B) {
	in := instance(b, "Product")
	pool := crowd.NewPool(crowd.PoolConfig{
		Size: 200, MeanError: 0.25, ErrorSpread: 0.18,
		QualificationPassRate: 1, Seed: benchSeed,
	})
	votes := crowd.CollectVotes(in.Cands.PairList(), in.Data.TruthFn(),
		crowd.UniformDifficulty(0), pool, crowd.Qualification{}, crowd.FiveWorker(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = quality.Estimate(votes, 30)
	}
}

// BenchmarkScaleACD runs the full pipeline on a 5000-record synthetic
// workload — the library-scale data point beyond the paper's datasets.
func BenchmarkScaleACD(b *testing.B) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		Entities: 1800, Records: 5000, Skew: 0.6, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	cands := pruning.Prune(d.Records, pruning.Options{})
	answers := crowd.BuildAnswers(cands.PairList(), d.TruthFn(), crowd.UniformDifficulty(0.05), crowd.ThreeWorker(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := core.ACD(cands, answers, core.Config{Seed: int64(i)})
		e := cluster.Evaluate(out.Clusters, d.Truth())
		b.ReportMetric(e.F1, "F1")
		b.ReportMetric(float64(out.Stats.Pairs), "pairs")
	}
}

// BenchmarkDatasetGeneration measures the synthetic generators.
func BenchmarkDatasetGeneration(b *testing.B) {
	for _, name := range experiments.DatasetNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = dataset.ByName(name, int64(i))
			}
		})
	}
}
