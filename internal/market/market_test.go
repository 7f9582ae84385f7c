package market

import (
	"context"
	"math"
	"sync"
	"testing"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
)

// countingSource wraps a crowd source and records the multiset and
// order of consultations.
type countingSource struct {
	mu    sync.Mutex
	inner crowd.Source
	asked map[record.Pair]int
	order []record.Pair
}

func newCounting(inner crowd.Source) *countingSource {
	return &countingSource{inner: inner, asked: map[record.Pair]int{}}
}

// Score implements crowd.Source.
func (c *countingSource) Score(p record.Pair) float64 {
	c.mu.Lock()
	c.asked[p]++
	c.order = append(c.order, p)
	c.mu.Unlock()
	return c.inner.Score(p)
}

// Config implements crowd.Source.
func (c *countingSource) Config() crowd.Config { return c.inner.Config() }

// disjointPairs returns n pairs sharing no records: (0,1), (2,3), ...
func disjointPairs(n int) []record.Pair {
	out := make([]record.Pair, n)
	for i := range out {
		out[i] = record.MakePair(record.ID(2*i), record.ID(2*i+1))
	}
	return out
}

// fixedFor builds an AnswerSet holding the given score for every pair.
func fixedFor(pairs []record.Pair, fc float64) *crowd.AnswerSet {
	scores := make(map[record.Pair]float64, len(pairs))
	for _, p := range pairs {
		scores[p] = fc
	}
	return crowd.FixedAnswers(scores, crowd.ThreeWorker(1))
}

// TestBatchAlignment: answers come back aligned to the input order for
// both ordering policies, every pair is consulted exactly once, and
// with arrival ordering the backend sees the input sequence verbatim.
func TestBatchAlignment(t *testing.T) {
	pairs := disjointPairs(23)
	answers := fixedFor(pairs, 0) // overwritten below with distinct scores
	scores := make(map[record.Pair]float64, len(pairs))
	for i, p := range pairs {
		scores[p] = float64(i%7) / 10
	}
	answers = crowd.FixedAnswers(scores, crowd.ThreeWorker(1))

	for _, order := range []Order{OrderArrival, OrderConfidence} {
		cs := newCounting(answers)
		m := New(Config{
			Backends:    []Backend{{ID: "only", Source: cs, CentsPerHIT: 2, PairsPerHIT: 5, ErrorRate: 0.1}},
			BudgetCents: Unlimited,
			Order:       order,
		})
		got := m.ScoreBatch(pairs)
		for i, p := range pairs {
			if got[i] != scores[p] {
				t.Errorf("order %v: out[%d] = %v, want %v", order, i, got[i], scores[p])
			}
		}
		for p, n := range cs.asked {
			if n != 1 {
				t.Errorf("order %v: pair %v consulted %d times", order, p, n)
			}
		}
		if len(cs.asked) != len(pairs) {
			t.Errorf("order %v: consulted %d distinct pairs, want %d", order, len(cs.asked), len(pairs))
		}
		if order == OrderArrival {
			for i, p := range cs.order {
				if p != pairs[i] {
					t.Fatalf("arrival order: consult %d = %v, want %v", i, p, pairs[i])
				}
			}
		}
	}
}

// TestRoutingByValue: a confident prior routes to the free machine
// backend, a hard question routes to the accurate expensive backend
// when its information per cent wins, and the cheap noisy backend takes
// the middle ground.
func TestRoutingByValue(t *testing.T) {
	p := record.MakePair(0, 1)
	answers := fixedFor([]record.Pair{p}, 1)
	mk := func(prior float64) *Market {
		return New(Config{
			Backends: []Backend{
				{ID: "fast", Source: answers, CentsPerHIT: 1, PairsPerHIT: 20, ErrorRate: 0.12},
				{ID: "careful", Source: answers, CentsPerHIT: 6, PairsPerHIT: 10, ErrorRate: 0.02},
				{ID: "machine", ErrorRate: 0.35, Machine: true},
			},
			BudgetCents: Unlimited,
			Prior:       func(record.Pair) float64 { return prior },
		})
	}

	m := mk(0.999) // near-certain: nothing is worth paying for
	m.ScoreBatch([]record.Pair{p})
	if c := m.Ledger()[p]; c.Backend != "machine" {
		t.Errorf("confident prior routed to %q, want machine", c.Backend)
	}

	m = mk(0.5) // maximum uncertainty: buy the best information per cent
	m.ScoreBatch([]record.Pair{p})
	if c := m.Ledger()[p]; c.Backend == "machine" {
		t.Errorf("hard question routed to the machine backend")
	}
}

// TestZeroBudget: a zero budget buys nothing — every answer degrades to
// the machine prior gracefully, with zero spend.
func TestZeroBudget(t *testing.T) {
	pairs := disjointPairs(12)
	answers := fixedFor(pairs, 1)
	rec := obs.New()
	m := New(Config{
		Backends: []Backend{
			{ID: "paid", Source: answers, CentsPerHIT: 2, PairsPerHIT: 5, ErrorRate: 0.05},
			{ID: "machine", ErrorRate: 0.35, Machine: true},
		},
		BudgetCents: 0,
		Prior:       func(record.Pair) float64 { return 0.4 },
	})
	m.SetRecorder(rec)
	got := m.ScoreBatch(pairs)
	for i := range got {
		if got[i] != 0.4 {
			t.Fatalf("out[%d] = %v, want the 0.4 prior", i, got[i])
		}
	}
	if m.Spent() != 0 {
		t.Errorf("Spent() = %d, want 0", m.Spent())
	}
	if !m.Exhausted() {
		t.Error("Exhausted() = false after refusing paid routes")
	}
	for p, c := range m.Ledger() {
		if c.Backend != "machine" || c.Cents != 0 {
			t.Errorf("pair %v charged %+v, want free machine answer", p, c)
		}
	}
	if rec.Counter(MetricBudgetExhausted) == 0 {
		t.Error("budget_exhausted metric not counted")
	}
}

// TestMidBatchExhaustion: when the budget runs out mid-batch, the spent
// prefix keeps its paid answers and charges, the rest degrade to the
// machine prior, and total spend never exceeds the budget.
func TestMidBatchExhaustion(t *testing.T) {
	pairs := disjointPairs(30)
	answers := fixedFor(pairs, 1)
	rec := obs.New()
	m := New(Config{
		Backends: []Backend{
			{ID: "paid", Source: answers, CentsPerHIT: 2, PairsPerHIT: 5, ErrorRate: 0.05},
			{ID: "machine", ErrorRate: 0.35, Machine: true},
		},
		BudgetCents: 4, // exactly two 5-pair HITs
		Prior:       func(record.Pair) float64 { return 0.5 },
	})
	m.SetRecorder(rec)
	m.ScoreBatch(pairs)

	if m.Spent() != 4 {
		t.Errorf("Spent() = %d, want the full 4-cent budget", m.Spent())
	}
	paid, free := 0, 0
	var paidCents float64
	for _, c := range m.Ledger() {
		switch c.Backend {
		case "paid":
			paid++
			paidCents += c.Cents
		case "machine":
			free++
		default:
			t.Errorf("unexpected backend %q", c.Backend)
		}
	}
	if paid != 10 || free != 20 {
		t.Errorf("paid %d / free %d answers, want 10 / 20", paid, free)
	}
	if math.Abs(paidCents-4) > 1e-9 {
		t.Errorf("ledger paid prices sum to %v, want 4", paidCents)
	}
	if !m.Exhausted() {
		t.Error("Exhausted() = false")
	}
	hits, cents, ok := m.Bill()
	if !ok || hits != 2 || cents != 4 {
		t.Errorf("Bill() = (%d, %d, %v), want (2, 4, true)", hits, cents, ok)
	}
	if hits, cents, _ := m.Bill(); hits != 0 || cents != 0 {
		t.Errorf("second Bill() = (%d, %d), want drained", hits, cents)
	}
}

// TestPartialHITChargedInFull: a batch that ends mid-HIT still pays for
// the opened HIT, and the ledger splits its price across the actual
// occupants.
func TestPartialHITChargedInFull(t *testing.T) {
	pairs := disjointPairs(3)
	answers := fixedFor(pairs, 1)
	m := New(Config{
		Backends:    []Backend{{ID: "b", Source: answers, CentsPerHIT: 6, PairsPerHIT: 10, ErrorRate: 0.05}},
		BudgetCents: Unlimited,
		Prior:       func(record.Pair) float64 { return 0.5 },
	})
	m.ScoreBatch(pairs)
	if m.Spent() != 6 {
		t.Errorf("Spent() = %d, want 6 (one full HIT)", m.Spent())
	}
	for p, c := range m.Ledger() {
		if math.Abs(c.Cents-2) > 1e-9 {
			t.Errorf("pair %v priced %v, want 6/3 = 2", p, c.Cents)
		}
	}
}

// TestPriceSpike: once the spike fires, the cheap backend's effective
// price makes it lose the value race and routing shifts.
func TestPriceSpike(t *testing.T) {
	pairs := disjointPairs(40)
	answers := fixedFor(pairs, 1)
	m := New(Config{
		Backends: []Backend{
			{ID: "cheap", Source: answers, CentsPerHIT: 1, PairsPerHIT: 10, ErrorRate: 0.12},
			{ID: "careful", Source: answers, CentsPerHIT: 6, PairsPerHIT: 10, ErrorRate: 0.02},
		},
		BudgetCents: Unlimited,
		Prior:       func(record.Pair) float64 { return 0.5 },
		Spikes:      []Spike{{Backend: "cheap", After: 20, Factor: 50}},
	})
	m.ScoreBatch(pairs)
	led := m.Ledger()
	if got := led[pairs[0]].Backend; got != "cheap" {
		t.Errorf("pre-spike question routed to %q, want cheap", got)
	}
	if got := led[pairs[39]].Backend; got != "careful" {
		t.Errorf("post-spike question routed to %q, want careful", got)
	}
}

// TestShortCircuit: with transitive short-circuiting on, a pair whose
// records are already connected by earlier positive answers is answered
// for free without consulting any backend.
func TestShortCircuit(t *testing.T) {
	a, b, c := record.ID(0), record.ID(1), record.ID(2)
	chain := []record.Pair{record.MakePair(a, b), record.MakePair(b, c), record.MakePair(a, c)}
	answers := fixedFor(chain, 1)
	cs := newCounting(answers)
	rec := obs.New()
	m := New(Config{
		Backends:     []Backend{{ID: "b", Source: cs, CentsPerHIT: 1, PairsPerHIT: 1, ErrorRate: 0.05}},
		BudgetCents:  Unlimited,
		ShortCircuit: true,
		Prior:        func(record.Pair) float64 { return 0.9 },
	})
	m.SetRecorder(rec)
	got := m.ScoreBatch(chain)
	if got[2] != 1 {
		t.Errorf("inferred answer = %v, want 1", got[2])
	}
	if n := cs.asked[record.MakePair(a, c)]; n != 0 {
		t.Errorf("short-circuited pair consulted %d times", n)
	}
	if c := m.Ledger()[record.MakePair(a, c)]; c.Backend != ChargeInferred || c.Cents != 0 {
		t.Errorf("inferred pair charged %+v", c)
	}
	if rec.Counter(MetricShortCircuited) != 1 {
		t.Errorf("short_circuited = %d, want 1", rec.Counter(MetricShortCircuited))
	}
	// The invariant bookkeeping: 3 questions answered, 2 oracle consults
	// by the backend — the market itself counted the third.
	if rec.Counter(crowd.MetricOracleInvocations) != 1 {
		t.Errorf("market-side oracle invocations = %d, want 1 (the inferred answer)", rec.Counter(crowd.MetricOracleInvocations))
	}
}

// TestInvariantSurvivesRouting runs the full ACD pipeline over a mixed
// fleet — paid AnswerSet backends, a free machine backend, confidence
// ordering, short-circuiting, and a finite budget — and asserts the
// pinned accounting invariant: crowd/questions_answered equals
// crowd/oracle_invocations, and the session's cents equal the
// marketplace's spend.
func TestInvariantSurvivesRouting(t *testing.T) {
	// A synthetic 60-record instance: 20 entities of 3 records each,
	// with high in-entity machine scores and a few confusable cross
	// pairs.
	scores := make(cluster.Scores)
	truth := func(p record.Pair) bool { return p.Lo/3 == p.Hi/3 }
	for e := 0; e < 20; e++ {
		base := record.ID(3 * e)
		scores[record.MakePair(base, base+1)] = 0.9
		scores[record.MakePair(base, base+2)] = 0.55
		scores[record.MakePair(base+1, base+2)] = 0.62
		if e > 0 {
			scores[record.MakePair(base-1, base)] = 0.45
			scores[record.MakePair(base-2, base+1)] = 0.5
		}
	}
	cands := pruning.FromScores(60, scores, -1)
	answers := crowd.BuildAnswers(cands.PairList(), truth, crowd.UniformDifficulty(0.1), crowd.ThreeWorker(3))
	accurate := crowd.BuildAnswers(cands.PairList(), truth, crowd.UniformDifficulty(0.02), crowd.FiveWorker(4))

	rec := obs.New()
	m := New(Config{
		Backends: []Backend{
			{ID: "fast", Source: answers, CentsPerHIT: 1, PairsPerHIT: 20, ErrorRate: 0.12, Workers: 3},
			{ID: "careful", Source: accurate, CentsPerHIT: 6, PairsPerHIT: 10, ErrorRate: 0.02, Workers: 5},
			{ID: "machine", ErrorRate: 0.35, Machine: true},
		},
		BudgetCents:  25,
		Order:        OrderConfidence,
		ShortCircuit: true,
		Prior:        cands.Score,
	})
	out := core.ACD(cands, m, core.Config{Seed: 7, Obs: rec})
	if out.Err != nil {
		t.Fatalf("run failed: %v", out.Err)
	}
	qa := rec.Counter(crowd.MetricQuestionsAnswered)
	oi := rec.Counter(crowd.MetricOracleInvocations)
	if qa == 0 || qa != oi {
		t.Errorf("questions_answered = %d, oracle_invocations = %d; invariant broken", qa, oi)
	}
	if int64(out.Stats.Cents) != rec.Counter(MetricSpendCents) {
		t.Errorf("session cents %d != market spend %d", out.Stats.Cents, rec.Counter(MetricSpendCents))
	}
	if out.Stats.Cents != m.Spent() {
		t.Errorf("session cents %d != Spent() %d", out.Stats.Cents, m.Spent())
	}
	if m.Spent() > 25 {
		t.Errorf("spent %d cents over the 25-cent budget", m.Spent())
	}
	if rec.Counter(crowd.MetricCents) != rec.Counter(MetricSpendCents) {
		t.Errorf("crowd/cents %d != market/spend_cents %d", rec.Counter(crowd.MetricCents), rec.Counter(MetricSpendCents))
	}
}

// TestScoreBatchCtxCancel: a cancelled context stops the batch with the
// context's error and no further consults.
func TestScoreBatchCtxCancel(t *testing.T) {
	pairs := disjointPairs(5)
	answers := fixedFor(pairs, 1)
	m := New(Config{
		Backends:    []Backend{{ID: "b", Source: answers, CentsPerHIT: 1, PairsPerHIT: 1, ErrorRate: 0.1}},
		BudgetCents: Unlimited,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ScoreBatchCtx(ctx, pairs); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if m.Spent() != 0 {
		t.Errorf("cancelled-before-start batch spent %d cents", m.Spent())
	}
}

// cancellingBackend is a ContextBatchSource that cancels its caller's
// context inside its first HIT and answers every later one.
type cancellingBackend struct {
	*crowd.AnswerSet
	cancel context.CancelFunc
	calls  int
}

func (c *cancellingBackend) ScoreBatchCtx(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	if c.calls++; c.calls == 1 {
		c.cancel()
		return nil, ctx.Err()
	}
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = c.Score(p)
	}
	return out, nil
}

// TestScoreBatchCtxCancelInsideHIT: the context reaches a cancellable
// backend through the HIT flush; a cancellation there fails the batch
// with the context's error, the HITs opened stay charged, and the
// questions the batch left waiting in the other backend's open HIT are
// dropped with it — the marketplace outlives the batch (a served fleet
// answers many resolves), so the next one must neither flush nor be
// misaligned by them.
func TestScoreBatchCtxCancelInsideHIT(t *testing.T) {
	pairs := disjointPairs(9)
	scores := make(map[record.Pair]float64, len(pairs))
	prior := make(map[record.Pair]float64, len(pairs))
	for i, p := range pairs {
		scores[p] = float64(i) / 10
		// Near-certain priors route to "sure" (only an accurate answer
		// still tells anything), uncertain ones to "cheap".
		prior[p] = 0.5
		if i < 3 {
			prior[p] = 0.97
		}
	}
	answers := crowd.FixedAnswers(scores, crowd.ThreeWorker(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sure := &cancellingBackend{AnswerSet: answers, cancel: cancel}
	cheap := newCounting(answers)
	m := New(Config{
		// Neither HIT fills, so both flush at the end of the batch, in
		// fleet order: sure's first.
		Backends: []Backend{
			{ID: "sure", Source: sure, CentsPerHIT: 7, PairsPerHIT: 20, ErrorRate: 0.01},
			{ID: "cheap", Source: cheap, CentsPerHIT: 1, PairsPerHIT: 20, ErrorRate: 0.2},
		},
		BudgetCents: Unlimited,
		Prior:       func(p record.Pair) float64 { return prior[p] },
	})
	if _, err := m.ScoreBatchCtx(ctx, pairs); err != context.Canceled {
		t.Fatalf("batch cancelled inside a HIT returned %v, want context.Canceled", err)
	}
	if sure.calls != 1 || len(cheap.asked) != 0 {
		t.Fatalf("sure flushed %d HITs, cheap answered %d questions; want the cancellation inside sure's first HIT with cheap's still open",
			sure.calls, len(cheap.asked))
	}
	spent := m.Spent()
	if spent != 7+1 {
		t.Errorf("spent %d cents, want both opened HITs (7+1) to stay charged", spent)
	}

	next := pairs[7:] // shorter than the dead batch: a stale slot index would be out of range
	got, err := m.ScoreBatchCtx(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range next {
		if got[i] != scores[p] {
			t.Errorf("after the cancelled batch out[%d] = %v, want %v", i, got[i], scores[p])
		}
	}
	if len(cheap.order) != len(next) {
		t.Errorf("cheap answered %d questions for a batch of %d: the dead batch's waiting questions were flushed", len(cheap.order), len(next))
	}
}

// TestVoteCountAndConfig: votes reflect the selling backend's worker
// count, and Config() exposes the first paid backend's setting.
func TestVoteCountAndConfig(t *testing.T) {
	pairs := disjointPairs(2)
	answers := fixedFor(pairs, 1)
	m := New(Config{
		Backends: []Backend{
			{ID: "machine", ErrorRate: 0.3, Machine: true},
			{ID: "paid", Source: answers, CentsPerHIT: 2, PairsPerHIT: 20, ErrorRate: 0.05, Workers: 5},
		},
		BudgetCents: Unlimited,
		Prior:       func(record.Pair) float64 { return 0.5 },
	})
	if cfg := m.Config(); cfg.Workers != 5 || cfg.PairsPerHIT != 20 || cfg.CentsPerHIT != 2 {
		t.Errorf("Config() = %+v, want the paid backend's setting", cfg)
	}
	m.ScoreBatch(pairs[:1])
	if v := m.VoteCount(pairs[0]); v != 5 {
		t.Errorf("VoteCount(paid pair) = %d, want 5", v)
	}
	if v := m.VoteCount(pairs[1]); v != 0 {
		t.Errorf("VoteCount(unasked pair) = %d, want 0", v)
	}
}

// TestSessionBilling: driven through a crowd.Session, the session's
// stats book the marketplace's own HIT and cent accounting, not the
// uniform Config() rate.
func TestSessionBilling(t *testing.T) {
	pairs := disjointPairs(25)
	answers := fixedFor(pairs, 1)
	m := New(Config{
		Backends: []Backend{
			{ID: "cheap", Source: answers, CentsPerHIT: 1, PairsPerHIT: 20, ErrorRate: 0.12, Workers: 3},
		},
		BudgetCents: Unlimited,
		Prior:       func(record.Pair) float64 { return 0.5 },
	})
	sess := crowd.NewSession(m)
	sess.Ask(pairs)
	st := sess.Stats()
	if st.Pairs != 25 {
		t.Errorf("Pairs = %d, want 25", st.Pairs)
	}
	if st.HITs != 2 || st.Cents != 2 {
		t.Errorf("HITs/Cents = %d/%d, want 2/2 (two 20-pair HITs at 1c)", st.HITs, st.Cents)
	}
	if st.Votes != 25*3 {
		t.Errorf("Votes = %d, want 75", st.Votes)
	}
}

// TestInfoGain sanity: zero at certainty, increasing with backend
// accuracy, zero for a coin-flip backend.
func TestInfoGain(t *testing.T) {
	if g := infoGain(0, 0.1); g != 0 {
		t.Errorf("infoGain(0, .1) = %v, want 0", g)
	}
	if g := infoGain(1, 0.1); g != 0 {
		t.Errorf("infoGain(1, .1) = %v, want 0", g)
	}
	if g := infoGain(0.5, 0.5); g > 1e-12 {
		t.Errorf("infoGain(.5, .5) = %v, want 0", g)
	}
	if infoGain(0.5, 0.02) <= infoGain(0.5, 0.2) {
		t.Error("a more accurate backend should buy more information")
	}
	if infoGain(0.5, 0.1) <= infoGain(0.9, 0.1) {
		t.Error("a harder question should buy more information")
	}
}

// TestAnswerSet: the marketplace materializes everything it answered —
// paid, machine, and inferred — as a replayable AnswerSet whose scores
// match the batch output and whose charges match the ledger.
func TestAnswerSet(t *testing.T) {
	pairs := []record.Pair{
		record.MakePair(0, 1),
		record.MakePair(1, 2),
		record.MakePair(0, 2), // inferred once 0-1 and 1-2 are positive
		record.MakePair(3, 4),
	}
	m := New(Config{
		Backends: []Backend{
			{ID: "paid", Source: fixedFor(pairs, 0.9), CentsPerHIT: 2, PairsPerHIT: 1, ErrorRate: 0.1},
			{ID: "m", Machine: true, ErrorRate: 0.45},
		},
		BudgetCents:  Unlimited,
		ShortCircuit: true,
		MinValue:     -1,
	})
	out := m.ScoreBatch(pairs)

	a := m.AnswerSet()
	ledger := m.Ledger()
	if len(ledger) != len(pairs) {
		t.Fatalf("ledger holds %d pairs, want %d", len(ledger), len(pairs))
	}
	for i, p := range pairs {
		if got := a.Score(p); got != out[i] {
			t.Errorf("AnswerSet score for %v = %v, want batch answer %v", p, got, out[i])
		}
		backend, cents := a.Charge(p)
		want := ledger[p]
		if backend != want.Backend || cents != want.Cents {
			t.Errorf("AnswerSet charge for %v = (%q, %v), want (%q, %v)",
				p, backend, cents, want.Backend, want.Cents)
		}
	}
	if backend, _ := a.Charge(record.MakePair(0, 2)); backend != ChargeInferred {
		t.Errorf("pair (0,2) charged to %q, want %q", backend, ChargeInferred)
	}
	if cfg := a.Config(); cfg.CentsPerHIT != 2 || cfg.PairsPerHIT != 1 {
		t.Errorf("AnswerSet config = %+v, want the paid backend's setting", cfg)
	}
}
