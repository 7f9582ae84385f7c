package incremental_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/shard"
)

// probeSource answers from an AnswerSet and records which of the three
// source paths the session took. On its cancelAt'th ScoreBatchCtx call
// it consults the oracle for half the batch, cancels its own context and
// returns the context's error — a crowd that stops mid-batch.
type probeSource struct {
	answers                 *crowd.AnswerSet
	scalar, batch, ctxBatch int
	batches                 [][]record.Pair // every batch answered in full
	cancelAt                int
	cancel                  context.CancelFunc
}

func (s *probeSource) Config() crowd.Config { return s.answers.Config() }

func (s *probeSource) Score(p record.Pair) float64 {
	s.scalar++
	return s.answers.Score(p)
}

func (s *probeSource) ScoreBatch(pairs []record.Pair) []float64 {
	s.batch++
	return s.answer(pairs)
}

func (s *probeSource) ScoreBatchCtx(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	s.ctxBatch++
	if s.ctxBatch == s.cancelAt {
		for _, p := range pairs[:len(pairs)/2] {
			s.answers.Score(p)
		}
		s.cancel()
		return nil, ctx.Err()
	}
	return s.answer(pairs), nil
}

func (s *probeSource) answer(pairs []record.Pair) []float64 {
	s.batches = append(s.batches, append([]record.Pair(nil), pairs...))
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = s.answers.Score(p)
	}
	return out
}

// seamFixture is 80 Restaurant records — enough that one resolve takes
// several crowd iterations — and the answer file over their candidates.
func seamFixture() ([]incremental.Record, *crowd.AnswerSet) {
	ds := dataset.Restaurant(3)
	recs := ds.Records[:80]
	cands := pruning.Prune(recs, pruning.Options{})
	answers := crowd.BuildAnswers(cands.PairList(), ds.TruthFn(), crowd.UniformDifficulty(0), crowd.ThreeWorker(5))
	out := make([]incremental.Record, len(recs))
	for i, r := range recs {
		out[i] = incremental.Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)}
	}
	return out, answers
}

// TestResolveReachesContextBatchPath: a resolve bound to a context asks
// the source through ScoreBatchCtx — the capability the old sink wrapper
// dropped — and a cancellation inside a batch returns the context's
// error with nothing changed except the answers already sunk.
func TestResolveReachesContextBatchPath(t *testing.T) {
	type view struct{ round, upTo, pending, answers int }
	type system struct {
		resolve func(context.Context) error
		state   func() view
	}
	for _, row := range []struct {
		name string
		open func(t *testing.T, cfg incremental.Config, recs []incremental.Record) system
	}{
		{"engine", func(t *testing.T, cfg incremental.Config, recs []incremental.Record) system {
			e := incremental.New(cfg)
			if _, err := e.Add(recs...); err != nil {
				t.Fatal(err)
			}
			return system{
				resolve: func(ctx context.Context) error { _, err := e.Resolve(ctx); return err },
				state:   func() view { return view{e.Round(), e.ResolvedUpTo(), e.PendingPairs(), e.AnswerCount()} },
			}
		}},
		{"group of 3 shards", func(t *testing.T, cfg incremental.Config, recs []incremental.Record) system {
			g, err := shard.New(shard.Config{Shards: 3, Engine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { g.Close() })
			if _, err := g.Add(recs...); err != nil {
				t.Fatal(err)
			}
			return system{
				resolve: func(ctx context.Context) error { _, err := g.Resolve(ctx); return err },
				state: func() view {
					s := g.Snapshot()
					return view{s.Round, s.ResolvedUpTo, s.PendingPairs, s.Answers}
				},
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			recs, answers := seamFixture()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			probe := &probeSource{answers: answers, cancelAt: 2, cancel: cancel}
			sys := row.open(t, incremental.Config{Source: probe, Seed: 7}, recs)
			before := sys.state()

			err := sys.resolve(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("resolve cancelled inside its second batch returned %v, want context.Canceled", err)
			}
			if probe.ctxBatch != 2 || probe.batch != 0 || probe.scalar != 0 {
				t.Fatalf("source calls: ScoreBatchCtx ×%d, ScoreBatch ×%d, Score ×%d; want 2/0/0",
					probe.ctxBatch, probe.batch, probe.scalar)
			}
			want := before
			want.answers += len(probe.batches[0])
			if got := sys.state(); got != want {
				t.Errorf("state after the cancelled resolve = %+v, want %+v (only the first batch's answers kept)", got, want)
			}

			// The system is still usable, and what was sunk is not bought
			// again.
			bought := make(map[record.Pair]bool)
			for _, p := range probe.batches[0] {
				bought[p] = true
			}
			probe.batches = nil
			if err := sys.resolve(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, b := range probe.batches {
				for _, p := range b {
					if bought[p] {
						t.Fatalf("pair %v, sunk before the cancellation, was asked again", p)
					}
				}
			}
			if got := sys.state(); got.round != 1 || got.pending != 0 {
				t.Errorf("state after the healthy resolve = %+v", got)
			}
		})
	}
}

// TestSinkFailureStopsBuying: when the journal refuses a fresh answer,
// the pass stops at that crowd iteration — nothing more is bought that
// could not be journaled — and returns the journal's error, with the
// crowd accounting still square for what was bought.
func TestSinkFailureStopsBuying(t *testing.T) {
	recs, answers := seamFixture()

	// A healthy twin shows the fixture needs several iterations, so
	// "stopped after one" below means something.
	twin := incremental.New(incremental.Config{Source: answers, Seed: 7})
	if _, err := twin.Add(recs...); err != nil {
		t.Fatal(err)
	}
	if st, err := twin.Resolve(context.Background()); err != nil || st.Iterations < 2 {
		t.Fatalf("fixture resolve: %d iterations, err %v; want at least 2", st.Iterations, err)
	}

	rec := obs.New()
	answers.SetRecorder(rec)
	probe := &probeSource{answers: answers}
	tree := journal.NewMemTree()
	g := openGroup(t, incremental.Config{Source: probe, Seed: 7, Obs: rec}, tree)
	defer g.Close()
	if _, err := g.Add(recs...); err != nil {
		t.Fatal(err)
	}

	tree.Dir(shard0).FailAfterWrites(0)
	_, err := g.Resolve(context.Background())
	if err == nil || !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("resolve over a failing journal returned %v, want the injected write failure", err)
	}
	if len(probe.batches) != 1 {
		t.Errorf("source consulted for %d batches after the first append failed, want 1", len(probe.batches))
	}
	qa := rec.Counter(crowd.MetricQuestionsAnswered)
	oi := rec.Counter(crowd.MetricOracleInvocations)
	if qa != oi || int(qa) != len(probe.batches[0]) {
		t.Errorf("questions_answered %d, oracle_invocations %d, first batch %d pairs: want all equal",
			qa, oi, len(probe.batches[0]))
	}
	if s := g.Snapshot(); s.Round != 0 || s.Answers != 0 {
		t.Errorf("failed resolve left round %d, %d answers", s.Round, s.Answers)
	}
}
