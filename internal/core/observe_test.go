package core_test

import (
	"errors"
	"testing"
	"time"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/market"
	"acd/internal/pruning"
	"acd/internal/record"
)

// TestObserverParity: watching a run must not change it. For every kind
// of source the seam carries — scalar, vote-counting, batch,
// cancellable-batch with a recorder chain, self-billing — core.ACD with
// an observer returns the clustering and the crowd accounting of the
// same run without one, and the observer sees each crowd iteration
// exactly once, with exactly the pairs the session booked.
func TestObserverParity(t *testing.T) {
	d := dataset.Restaurant(3)
	cands := pruning.Prune(d.Records, pruning.Options{})
	pairs := cands.PairList()
	noisy := func() *crowd.AnswerSet {
		return crowd.BuildAnswers(pairs, d.TruthFn(), crowd.UniformDifficulty(0.1), crowd.ThreeWorker(4))
	}
	marketOver := func(backends []market.Backend, order market.Order, shortCircuit bool) crowd.Source {
		return market.New(market.Config{
			Backends:     backends,
			BudgetCents:  market.Unlimited,
			Order:        order,
			ShortCircuit: shortCircuit,
			Prior:        cands.Score,
			Seed:         9,
		})
	}

	// Every row builds its source from scratch: sources carry state (a
	// market's ledger, a chaos injector's question counter), so the two
	// runs being compared must not share one.
	for _, row := range []struct {
		name   string
		source func(t *testing.T) crowd.Source
	}{
		{"SourceFunc", func(*testing.T) crowd.Source {
			return crowd.SourceFunc{Fn: noisy().Score, Setting: crowd.ThreeWorker(4)}
		}},
		{"adaptive-vote AnswerSet", func(*testing.T) crowd.Source {
			return crowd.BuildAdaptiveAnswers(pairs, d.TruthFn(), crowd.UniformDifficulty(0.25), crowd.ThreeWorker(4), 7)
		}},
		{"AsyncSource", func(*testing.T) crowd.Source {
			return crowd.AsyncSource{Fn: noisy().Score, Concurrency: 4, Setting: crowd.ThreeWorker(4)}
		}},
		{"NewReliable(NewChaos(AnswerSet)) on a VirtualClock", func(*testing.T) crowd.Source {
			chaos := crowd.NewChaos(noisy(), crowd.ChaosConfig{Seed: 5, DropProb: 0.1, ErrorProb: 0.1, SpikeProb: 0.1})
			return crowd.NewReliable(chaos, crowd.ReliableConfig{
				Seed:     5,
				Fallback: cands.Score,
				Clock:    crowd.NewVirtualClock(time.Time{}),
			})
		}},
		{"one-backend market", func(*testing.T) crowd.Source {
			return marketOver([]market.Backend{
				{ID: "only", Source: noisy(), CentsPerHIT: 3, PairsPerHIT: 10, ErrorRate: 0.05},
			}, market.OrderArrival, false)
		}},
		{"DefaultFleetSpec", func(t *testing.T) crowd.Source {
			backends, err := market.Fleet(market.DefaultFleetSpec, noisy().Score, 9)
			if err != nil {
				t.Fatal(err)
			}
			return marketOver(backends, market.OrderConfidence, true)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			plain := core.ACD(cands, row.source(t), core.Config{Seed: 7})
			if plain.Err != nil || plain.Stats.Iterations < 2 {
				t.Fatalf("unobserved run: err %v, stats %+v", plain.Err, plain.Stats)
			}

			calls, seen := 0, make(map[record.Pair]bool)
			watched := core.ACD(cands, row.source(t), core.Config{
				Seed: 7,
				Observe: func(fresh []record.Pair, scores []float64) error {
					calls++
					if len(fresh) == 0 || len(scores) != len(fresh) {
						t.Errorf("observer call %d: %d fresh pairs, %d scores", calls, len(fresh), len(scores))
					}
					for _, p := range fresh {
						if seen[p] {
							t.Errorf("pair %v observed twice", p)
						}
						seen[p] = true
					}
					return nil
				},
			})
			if watched.Err != nil {
				t.Fatal(watched.Err)
			}
			if !cluster.Equal(plain.Clusters, watched.Clusters) {
				t.Error("observing the run changed its clustering")
			}
			if plain.Stats != watched.Stats {
				t.Errorf("observing the run changed its accounting:\n plain   %+v\n watched %+v", plain.Stats, watched.Stats)
			}
			if calls != watched.Stats.Iterations || len(seen) != watched.Stats.Pairs {
				t.Errorf("observer saw %d iterations and %d pairs, session booked %d and %d",
					calls, len(seen), watched.Stats.Iterations, watched.Stats.Pairs)
			}
		})
	}
}

// TestObserverErrorAbortsRun: an observer's error stops the campaign
// like a cancelled context — Output.Err carries it, nothing more is
// bought, and the partial clustering is still a partition.
func TestObserverErrorAbortsRun(t *testing.T) {
	d, cands, answers := smallInstance(t)
	full := core.ACD(cands, answers, core.Config{Seed: 7})

	boom := errors.New("sink full")
	calls := 0
	out := core.ACD(cands, answers, core.Config{
		Seed: 7,
		Observe: func([]record.Pair, []float64) error {
			if calls++; calls == 2 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(out.Err, boom) {
		t.Fatalf("Err = %v, want the observer's error", out.Err)
	}
	if calls != 2 || out.Stats.Iterations != 2 || out.Stats.Pairs >= full.Stats.Pairs {
		t.Errorf("observer called %d times, stats %+v (a full run asks %d pairs): the run kept buying",
			calls, out.Stats, full.Stats.Pairs)
	}
	if out.Clusters.Len() != len(d.Records) {
		t.Errorf("partial clustering covers %d records, want %d", out.Clusters.Len(), len(d.Records))
	}
}
