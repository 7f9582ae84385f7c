package crowd

import (
	"context"
	"math"
	"testing"

	"acd/internal/obs"
	"acd/internal/record"
)

func TestFixedAnswers(t *testing.T) {
	scores := map[record.Pair]float64{
		record.MakePair(0, 1): 0.9,
		record.MakePair(2, 3): 0.2,
	}
	a := FixedAnswers(scores, Config{})
	// Zero config defaults to the 3-worker setting shape.
	if a.Config().Workers != 3 || a.Config().PairsPerHIT != 20 {
		t.Errorf("default config = %+v", a.Config())
	}
	if a.Score(record.MakePair(0, 1)) != 0.9 {
		t.Errorf("score wrong")
	}
	if !a.Has(record.MakePair(2, 3)) || a.Has(record.MakePair(4, 5)) {
		t.Errorf("Has wrong")
	}
	// Implied truth is fc > 0.5, so the error rate is 0 by construction.
	if a.ErrorRate() != 0 {
		t.Errorf("fixed answers error rate = %v", a.ErrorRate())
	}
	explicit := FixedAnswers(scores, FiveWorker(3))
	if explicit.Config().Workers != 5 {
		t.Errorf("explicit config ignored")
	}
}

func TestAsyncSourceScoreSingle(t *testing.T) {
	src := AsyncSource{Fn: func(p record.Pair) float64 { return 0.25 }, Setting: ThreeWorker(0)}
	if got := src.Score(record.MakePair(1, 2)); got != 0.25 {
		t.Errorf("Score = %v", got)
	}
	if src.Config().Workers != 3 {
		t.Errorf("Config passthrough wrong")
	}
}

// TestCollectVotesConsistentWithPoolAnswers: aggregating the raw votes
// reproduces BuildAnswersFromPool's scores exactly (same RNG path).
func TestCollectVotesConsistentWithPoolAnswers(t *testing.T) {
	pool := testPool()
	pairs := adaptivePairs(150)
	truth := func(p record.Pair) bool { return p.Lo%2 == 0 }
	diff := UniformDifficulty(0.1)
	cfg := ThreeWorker(9)

	agg := BuildAnswersFromPool(pairs, truth, diff, pool, BasicQualification, cfg)
	votes := CollectVotes(pairs, truth, diff, pool, BasicQualification, cfg)
	if len(votes) != len(pairs)*3 {
		t.Fatalf("%d votes for %d pairs", len(votes), len(pairs))
	}
	scores := MajorityScores(votes)
	for _, p := range pairs {
		if math.Abs(scores[p]-agg.Score(p)) > 1e-12 {
			t.Fatalf("vote aggregation differs from pool answers at %v: %v vs %v",
				p, scores[p], agg.Score(p))
		}
	}
}

func TestMajorityScoresEmpty(t *testing.T) {
	if got := MajorityScores(nil); len(got) != 0 {
		t.Errorf("empty votes produced %v", got)
	}
}

func TestCollectVotesPanics(t *testing.T) {
	pool := testPool()
	for i, fn := range []func(){
		func() { CollectVotes(nil, nil, nil, pool, Qualification{}, Config{Workers: 2, PairsPerHIT: 5}) },
		func() {
			tiny := NewPool(PoolConfig{Size: 1, MeanError: 0.1, QualificationPassRate: 1, Seed: 1})
			CollectVotes(nil, nil, nil, tiny, Qualification{}, ThreeWorker(1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestSessionPrime: primed answers are served from the known set with
// zero accounting, zero metrics and zero source contact; asking a primed
// pair later is a free cache hit, and re-priming a known pair is a no-op.
func TestSessionPrime(t *testing.T) {
	calls := 0
	src := SourceFunc{
		Fn:      func(record.Pair) float64 { calls++; return 0.9 },
		Setting: ThreeWorker(1),
	}
	s := NewSession(src)
	rec := obs.New()
	s.SetRecorder(rec)

	p1 := record.MakePair(0, 1)
	p2 := record.MakePair(0, 2)
	s.Prime(p1, 1.0)
	if s.Stats() != (Stats{}) {
		t.Errorf("priming charged accounting: %+v", s.Stats())
	}
	if got := s.AskOne(p1); got != 1.0 {
		t.Errorf("AskOne(primed) = %v, want 1.0", got)
	}
	if calls != 0 {
		t.Errorf("primed ask contacted the source %d times", calls)
	}
	if n := rec.Counter(MetricQuestionsAnswered); n != 0 {
		t.Errorf("primed ask counted %d questions_answered", n)
	}
	if got := s.AskOne(p2); got != 0.9 || calls != 1 {
		t.Errorf("fresh ask = %v (%d calls), want 0.9 (1 call)", got, calls)
	}
	// Re-priming a known pair is a no-op: the first value sticks.
	s.Prime(p2, 0.0)
	if fc, _ := s.Known(p2); fc != 0.9 {
		t.Errorf("re-prime overwrote known answer: %v", fc)
	}
	if got := len(s.KnownOrdered()); got != 2 {
		t.Errorf("KnownOrdered has %d pairs, want 2", got)
	}
	if s.Stats().Pairs != 1 {
		t.Errorf("stats charged %d pairs, want only the fresh one", s.Stats().Pairs)
	}
}

// TestSessionKnownScoresAligned: KnownScores stays aligned with
// KnownOrdered — entry i is Known(KnownOrdered()[i]) — through batches
// with in-batch duplicates, pairs already known from earlier batches,
// Prime (fresh and redundant), and a batch the context cancels, which
// must leave A exactly as it was.
func TestSessionKnownScoresAligned(t *testing.T) {
	score := func(p record.Pair) float64 { return float64((int(p.Lo)*7+int(p.Hi))%4) / 3 }
	s := NewSession(SourceFunc{Fn: score, Setting: ThreeWorker(1)})
	check := func(step string) {
		t.Helper()
		known, scores := s.KnownOrdered(), s.KnownScores()
		if len(known) != len(scores) || len(known) != s.KnownCount() {
			t.Fatalf("%s: %d pairs, %d scores, KnownCount %d", step, len(known), len(scores), s.KnownCount())
		}
		seen := map[record.Pair]bool{}
		for i, p := range known {
			if seen[p] {
				t.Fatalf("%s: %v twice in A", step, p)
			}
			seen[p] = true
			fc, ok := s.Known(p)
			if !ok || fc != scores[i] {
				t.Fatalf("%s: KnownScores()[%d] = %v, Known(%v) = %v, %v", step, i, scores[i], p, fc, ok)
			}
		}
		if got := s.KnownPairs(); len(got) != len(known) {
			t.Fatalf("%s: KnownPairs has %d pairs, want %d", step, len(got), len(known))
		}
	}
	p := func(a, b record.ID) record.Pair { return record.MakePair(a, b) }

	out := s.Ask([]record.Pair{p(0, 1), p(0, 2), p(0, 1), p(1, 2), p(0, 2)})
	for i, q := range []record.Pair{p(0, 1), p(0, 2), p(0, 1), p(1, 2), p(0, 2)} {
		if out[i] != score(q) {
			t.Errorf("Ask[%d] = %v, want %v", i, out[i], score(q))
		}
	}
	check("duplicates")
	s.Prime(p(3, 4), 1)
	s.Prime(p(0, 1), 0.5) // already known: no-op
	check("prime")
	out = s.Ask([]record.Pair{p(3, 4), p(2, 3), p(0, 1), p(2, 3), p(4, 5)})
	if out[0] != 1 || out[2] != score(p(0, 1)) || out[1] != out[3] {
		t.Errorf("cached/primed answers wrong: %v", out)
	}
	check("cached")
	if s.Stats().Pairs != 5 || s.KnownCount() != 6 {
		t.Errorf("stats %+v, |A| %d; want 5 asked, 6 known", s.Stats(), s.KnownCount())
	}

	// A cancelled batch answers nothing and leaves A untouched.
	ctx, cancel := context.WithCancel(context.Background())
	s.Bind(ctx)
	cancel()
	before := append([]record.Pair(nil), s.KnownOrdered()...)
	s.Ask([]record.Pair{p(7, 8), p(0, 1)})
	if s.Err() == nil {
		t.Fatal("cancelled batch did not abort the session")
	}
	if _, ok := s.Known(p(7, 8)); ok || s.KnownCount() != len(before) {
		t.Errorf("cancelled batch changed A")
	}
	check("cancelled")
}

// TestSessionFailedBatchRollsBack: a batch whose source fails mid-flight
// leaves no trace of its fresh pairs in A.
func TestSessionFailedBatchRollsBack(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelOnBatch{cancel: cancel}
	s := NewSession(src)
	s.Prime(record.MakePair(0, 1), 1)
	s.Bind(ctx)
	s.Ask([]record.Pair{record.MakePair(2, 3), record.MakePair(0, 1), record.MakePair(2, 3)})
	if s.Err() == nil {
		t.Fatal("failed batch did not abort the session")
	}
	if _, ok := s.Known(record.MakePair(2, 3)); ok || s.KnownCount() != 1 || len(s.KnownScores()) != 1 {
		t.Errorf("failed batch left %d pairs in A, want the 1 primed", s.KnownCount())
	}
}

// cancelOnBatch is a context-aware batch source that cancels its
// campaign's context and fails the batch it was handed.
type cancelOnBatch struct{ cancel context.CancelFunc }

func (c *cancelOnBatch) Score(record.Pair) float64 { return 1 }
func (c *cancelOnBatch) Config() Config            { return ThreeWorker(1) }
func (c *cancelOnBatch) ScoreBatchCtx(ctx context.Context, _ []record.Pair) ([]float64, error) {
	c.cancel()
	return nil, ctx.Err()
}
