// Package market implements a heterogeneous crowd marketplace: a layer
// between the resolve pipeline and crowd.Source that buys answers from
// several backends with different cost, latency, and accuracy profiles
// instead of treating the crowd as one uniform oracle.
//
// The paper's pipeline (and every prior PR in this repo) charges all
// questions at a single Config() rate. Real deployments mix channels —
// a fast cheap noisy microtask pool, a slow expensive accurate expert
// queue, and the free machine classifier — and the dominant cost levers
// are (a) sending each question to the channel whose answer buys the
// most information per cent (routing), (b) packing related pairs into
// multi-pair HITs so workers amortize reading records (CrowdER, VLDB
// 2012), and (c) ordering questions so likely duplicates are asked
// first and later pairs are answered for free by transitive closure
// ("The Expected Optimal Labeling Order Problem", CIKM 2013).
//
// A Market implements crowd.Source, crowd.ContextBatchSource, and
// crowd.Biller, so it slots into core.ACD, incremental.Config.Source,
// and serve.Config.Source unchanged; the session books the HITs and cents
// the marketplace actually spent rather than deriving them from a
// uniform rate. A single-backend market with arrival ordering, no
// short-circuiting, and an unlimited budget is a pure passthrough: it
// consults its backend exactly once per fresh pair, in batch order, so
// the question multiset and clustering are identical to the direct
// pipeline (the golden gate in golden_test.go).
package market

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"acd/internal/crowd"
	"acd/internal/obs"
	"acd/internal/record"
)

// Unlimited is the BudgetCents value that disables the global budget:
// the marketplace never refuses a paid backend for lack of funds. (Any
// negative budget means unlimited; a zero budget is a real zero — every
// question degrades to the machine prior.)
const Unlimited = -1

// Backend models one answer channel the marketplace can buy from.
type Backend struct {
	// ID names the backend in metrics, ledgers, and answer-file charge
	// provenance.
	ID string
	// Source answers the backend's questions — typically an AnswerSet
	// (experiments), a noisy deterministic simulator (serving), or
	// either wrapped in the ChaosSource/ReliableSource fault machinery.
	// A Machine backend may leave it nil to answer from Config.Prior.
	Source crowd.Source
	// CentsPerHIT and PairsPerHIT set the backend's price: a HIT packs
	// up to PairsPerHIT questions and costs CentsPerHIT (charged in
	// full when the HIT is opened, even if the batch ends before it
	// fills). Machine backends post no HITs and charge nothing.
	CentsPerHIT int
	PairsPerHIT int
	// ErrorRate is the backend's calibrated per-answer error
	// probability, the accuracy half of the routing value.
	ErrorRate float64
	// Workers is the number of worker votes behind each answer (for the
	// session's vote accounting); zero means 1. Machine backends report
	// zero votes regardless.
	Workers int
	// Latency is the median simulated HIT round-trip. It is accounting
	// only (recorded into the backend's latency histogram and the batch
	// makespan gauge), never slept; wrap Source in ChaosSource/
	// ReliableSource when real or simulated waiting is wanted.
	Latency time.Duration
	// Machine marks the free machine-classifier backend: answers come
	// from Source (or Config.Prior when Source is nil), cost nothing,
	// and carry no worker votes.
	Machine bool
}

// Spike models a price change mid-run: once the marketplace has routed
// After questions, the named backend's CentsPerHIT is multiplied by
// Factor (rounded up). The mixed-fleet load scenario uses it to make
// the cheap backend suddenly expensive and watch routing shift.
type Spike struct {
	// Backend is the ID of the backend whose price changes.
	Backend string
	// After is the routed-question count at which the spike takes
	// effect.
	After int
	// Factor multiplies CentsPerHIT (values <= 0 are ignored).
	Factor float64
}

// Order selects how a batch's questions are sequenced into HITs.
type Order int

const (
	// OrderArrival keeps the batch's own order — the passthrough mode
	// the golden gate requires.
	OrderArrival Order = iota
	// OrderConfidence implements the expected-optimal-labeling-order
	// heuristic: questions are grouped into clusters of pairs sharing a
	// record (CrowdER-style HIT generation) and clusters are asked
	// most-likely-duplicate first, so positive answers arrive early and
	// transitive short-circuiting cancels as many later questions as
	// possible.
	OrderConfidence
)

// Config parameterizes a Market.
type Config struct {
	// Backends is the fleet, consulted in order for routing ties.
	Backends []Backend
	// BudgetCents is the global spend ceiling across all paid backends.
	// Negative (Unlimited) disables it; zero buys nothing — every
	// question degrades gracefully to the machine prior.
	BudgetCents int
	// Order sequences each batch's questions (see Order).
	Order Order
	// ShortCircuit answers a question for free when its two records are
	// already transitively connected by earlier positive answers,
	// instead of consulting a backend. The marketplace itself is the
	// oracle for such answers (it counts the oracle invocation), so the
	// questions_answered == oracle_invocations invariant survives. Off
	// by default; the golden passthrough config keeps it off.
	ShortCircuit bool
	// Prior estimates P(duplicate) for a pair before buying anything —
	// the machine similarity score in the ACD pipeline. It drives both
	// routing (information value) and ordering, and is the answer of
	// last resort when the budget is exhausted. Nil means 0.5
	// everywhere (maximum uncertainty).
	Prior func(record.Pair) float64
	// OverheadCents is the fixed per-question handling cost added to
	// every backend's per-question price in the value denominator, so
	// the free machine backend has finite (not infinite) value and paid
	// backends can win when they buy enough information. Zero means
	// DefaultOverheadCents.
	OverheadCents float64
	// MinValue is the purchase floor, in bits per cent: when the best
	// paid backend's information value falls below it — the prior is
	// already near-certain, so even an accurate answer buys almost
	// nothing — and the fleet has a free machine backend to fall back
	// on, the question is not bought. Without a machine backend the
	// floor never applies (a fleet of only paid backends still answers
	// every question, which the golden passthrough depends on). Zero
	// means DefaultMinValue; negative disables the floor.
	MinValue float64
	// Spikes are scheduled price changes (see Spike).
	Spikes []Spike
	// Seed drives the simulated HIT latency draws.
	Seed int64
}

// DefaultOverheadCents is the per-question fixed handling cost used
// when Config.OverheadCents is zero.
const DefaultOverheadCents = 0.05

// DefaultMinValue is the purchase floor used when Config.MinValue is
// zero: with the default overhead it routes questions whose prior is
// within a few percent of certain to the free machine backend instead
// of paying for an answer that adds almost no information.
const DefaultMinValue = 0.5

// Charge records what one answer cost: the backend that sold it and the
// pair's share of its HIT's price in cents. Free answers (machine
// backend, budget fallback, short-circuit inference) have zero cents.
type Charge struct {
	// Backend is the selling backend's ID; "machine" for budget
	// fallbacks without a machine backend, "inferred" for transitive
	// short-circuits.
	Backend string
	// Cents is the price paid for this answer.
	Cents float64
}

// ChargeMachine and ChargeInferred are the ledger backend IDs for
// answers the marketplace produced itself: the budget/priors fallback
// and transitive short-circuit inference respectively.
const (
	ChargeMachine  = "machine"
	ChargeInferred = "inferred"
)

// backendState is a Backend plus its open-HIT buffer.
type backendState struct {
	cfg Backend
	buf []pendingQ // questions in the currently open (charged) HIT
	// openCents is the price the open HIT was charged at (captured at
	// open time, so a mid-HIT price spike does not re-bill it).
	openCents int
}

// pendingQ is one routed question waiting for its HIT to flush.
type pendingQ struct {
	p   record.Pair
	idx int // position in the caller's batch
}

// Market routes questions across a fleet of backends under a global
// budget. It is safe for concurrent use; each batch is processed
// atomically under one lock.
type Market struct {
	cfg      Config
	backends []*backendState
	rec      *obs.Recorder

	mu           sync.Mutex
	spent        int
	pendingHITs  int // since the last Bill
	pendingCents int
	routed       int // questions routed (drives price spikes)
	ledger       map[record.Pair]Charge
	answered     map[record.Pair]float64 // every answer sold, for AnswerSet
	parent       map[record.ID]record.ID // positive-closure union-find
	rng          *rand.Rand
	simLatency   time.Duration // accumulated per-batch HIT makespans
	exhausted    bool          // a paid route was ever refused for budget
}

// New builds a marketplace over the configured fleet. Backends with a
// non-positive PairsPerHIT are treated as PairsPerHIT = 1.
func New(cfg Config) *Market {
	if cfg.OverheadCents <= 0 {
		cfg.OverheadCents = DefaultOverheadCents
	}
	if cfg.MinValue == 0 {
		cfg.MinValue = DefaultMinValue
	} else if cfg.MinValue < 0 {
		cfg.MinValue = 0
	}
	m := &Market{
		cfg:      cfg,
		ledger:   make(map[record.Pair]Charge),
		answered: make(map[record.Pair]float64),
		parent:   make(map[record.ID]record.ID),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, b := range cfg.Backends {
		if b.PairsPerHIT < 1 {
			b.PairsPerHIT = 1
		}
		if b.Workers < 1 {
			b.Workers = 1
		}
		m.backends = append(m.backends, &backendState{cfg: b})
	}
	return m
}

// Config implements crowd.Source with a representative collection
// setting: the first paid backend's price and worker count (HIT and
// cents accounting never uses it — the market bills itself through
// crowd.Biller — but vote defaults and latency models read it).
func (m *Market) Config() crowd.Config {
	for _, b := range m.backends {
		if !b.cfg.Machine {
			return crowd.Config{
				Workers:     b.cfg.Workers,
				PairsPerHIT: b.cfg.PairsPerHIT,
				CentsPerHIT: b.cfg.CentsPerHIT,
				Seed:        m.cfg.Seed,
			}
		}
	}
	return crowd.Config{Workers: 1, PairsPerHIT: 1, CentsPerHIT: 0, Seed: m.cfg.Seed}
}

// SetRecorder implements crowd.RecorderSetter: it instruments the
// marketplace and pushes the recorder down into every backend source,
// then publishes each backend's calibrated error rate as a gauge.
func (m *Market) SetRecorder(rec *obs.Recorder) {
	m.rec = rec
	for _, b := range m.backends {
		if s, ok := b.cfg.Source.(crowd.RecorderSetter); ok {
			s.SetRecorder(rec)
		}
		rec.Gauge(BackendMetric(b.cfg.ID, "error_rate"), b.cfg.ErrorRate)
	}
}

// Recorder implements crowd.RecorderCarrier.
func (m *Market) Recorder() *obs.Recorder { return m.rec }

// Bill implements crowd.Biller: it drains the HITs and cents spent
// since the last call, so the session books the marketplace's real
// spend instead of a uniform rate.
func (m *Market) Bill() (hits, cents int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hits, cents = m.pendingHITs, m.pendingCents
	m.pendingHITs, m.pendingCents = 0, 0
	return hits, cents, true
}

// Spent returns the total cents charged so far.
func (m *Market) Spent() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spent
}

// Exhausted reports whether any question was ever denied its chosen
// paid backend because the remaining budget could not cover a new HIT.
func (m *Market) Exhausted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exhausted
}

// Ledger returns a copy of the per-pair charge ledger: which backend
// answered each pair and what it cost. Callers annotate saved answer
// files (AnswerSet.SetCharge) from it.
func (m *Market) Ledger() map[record.Pair]Charge {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[record.Pair]Charge, len(m.ledger))
	for p, c := range m.ledger {
		out[p] = c
	}
	return out
}

// AnswerSet materializes every answer the marketplace has sold as a
// replayable answer set with per-pair charge provenance (backend id and
// price) — the payload acddedup -save-answers writes as a v3 file when
// a marketplace is in play.
func (m *Market) AnswerSet() *crowd.AnswerSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := crowd.FixedAnswers(m.answered, m.Config())
	for p, c := range m.ledger {
		a.SetCharge(p, c.Backend, c.Cents)
	}
	return a
}

// VoteCount implements crowd.VoteCounter: the worker count of the
// backend that sold the pair's answer, zero for free answers.
func (m *Market) VoteCount(p record.Pair) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.ledger[p]
	if !ok {
		return 0
	}
	for _, b := range m.backends {
		if b.cfg.ID == c.Backend && !b.cfg.Machine {
			return b.cfg.Workers
		}
	}
	return 0
}

// Score implements crowd.Source (a one-question batch).
func (m *Market) Score(p record.Pair) float64 {
	return m.ScoreBatch([]record.Pair{p})[0]
}

// ScoreBatch implements crowd.BatchSource: it routes, packs, and
// resolves a whole crowd iteration. Answers are returned aligned to the
// input order regardless of how HIT packing reorders the work.
func (m *Market) ScoreBatch(pairs []record.Pair) []float64 {
	out, _ := m.scoreBatch(context.Background(), pairs)
	return out
}

// ScoreBatchCtx implements crowd.ContextBatchSource: as ScoreBatch, but
// a cancelled context stops the batch between questions and inside a
// cancellable backend's HIT. Whatever was already charged stays charged
// — the spent prefix is real money — and questions still waiting in an
// open HIT are dropped with the batch they belonged to.
func (m *Market) ScoreBatchCtx(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	return m.scoreBatch(ctx, pairs)
}

func (m *Market) scoreBatch(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Only a cancelled batch leaves questions waiting in an open HIT;
	// their slots in out died with it, so this batch must not flush them.
	for _, b := range m.backends {
		b.buf = b.buf[:0]
	}

	out := make([]float64, len(pairs))
	priors := make([]float64, len(pairs))
	for i, p := range pairs {
		priors[i] = m.prior(p)
	}
	var makespan time.Duration
	for _, i := range m.orderBatch(pairs, priors) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, prior := pairs[i], priors[i]

		// Transitive short-circuit: records already connected by earlier
		// positive answers need no backend. The marketplace is the oracle
		// for the inferred answer, so it counts the invocation itself —
		// the consult-once discipline ChaosSource established.
		if m.cfg.ShortCircuit && m.find(p.Lo) == m.find(p.Hi) {
			out[i] = 1
			m.answered[p] = 1
			m.ledger[p] = Charge{Backend: ChargeInferred}
			m.rec.Count(MetricShortCircuited, 1)
			m.rec.Count(crowd.MetricOracleInvocations, 1)
			continue
		}

		b := m.route(prior)
		m.routed++
		m.rec.Count(MetricRouted, 1)
		switch {
		case b == nil:
			// No affordable backend at all: degrade to the prior.
			out[i] = prior
			m.answered[p] = prior
			m.union(p, prior)
			m.ledger[p] = Charge{Backend: ChargeMachine}
			m.rec.Count(crowd.MetricOracleInvocations, 1)
			m.rec.Count(MetricFallbacks, 1)
		case b.cfg.Machine:
			fc := prior
			if b.cfg.Source != nil {
				fc = b.cfg.Source.Score(p)
			} else {
				m.rec.Count(crowd.MetricOracleInvocations, 1)
			}
			out[i] = fc
			m.answered[p] = fc
			m.union(p, fc)
			m.ledger[p] = Charge{Backend: b.cfg.ID}
			m.rec.Count(BackendMetric(b.cfg.ID, "questions"), 1)
		default:
			if len(b.buf) == 0 {
				m.openHIT(b)
			}
			b.buf = append(b.buf, pendingQ{p: p, idx: i})
			m.rec.Count(BackendMetric(b.cfg.ID, "questions"), 1)
			if len(b.buf) >= b.cfg.PairsPerHIT {
				lat, err := m.flush(ctx, b, out)
				if err != nil {
					return nil, err
				}
				makespan = max(makespan, lat)
			}
		}
	}
	// Batch over: flush the partial HITs (already charged at open).
	for _, b := range m.backends {
		if len(b.buf) > 0 {
			lat, err := m.flush(ctx, b, out)
			if err != nil {
				return nil, err
			}
			makespan = max(makespan, lat)
		}
	}
	if makespan > 0 {
		m.simLatency += makespan
		m.rec.Gauge(MetricSimLatencySeconds, m.simLatency.Seconds())
	}
	if m.cfg.BudgetCents >= 0 {
		m.rec.Gauge(MetricBudgetRemainingCents, float64(m.cfg.BudgetCents-m.spent))
	}
	return out, nil
}

// prior returns the pre-purchase duplicate probability for a pair.
func (m *Market) prior(p record.Pair) float64 {
	if m.cfg.Prior == nil {
		return 0.5
	}
	f := m.cfg.Prior(p)
	if math.IsNaN(f) {
		return 0.5
	}
	return math.Min(1, math.Max(0, f))
}

// route picks the backend with the best expected information value per
// cent that the budget can still afford, or nil when nothing is
// affordable. Value is the mutual information between the backend's
// answer and the truth given the prior, divided by the per-question
// price plus the fixed handling overhead; the free machine backend's
// denominator is the overhead alone.
func (m *Market) route(prior float64) *backendState {
	var best, bestFree *backendState
	bestV, bestFreeV := math.Inf(-1), math.Inf(-1)
	sawUnaffordable := false
	for _, b := range m.backends {
		if !m.affordable(b) {
			sawUnaffordable = true
			continue
		}
		g := infoGain(prior, b.cfg.ErrorRate)
		if b.cfg.Machine && b.cfg.Source == nil {
			// A machine backend without its own source answers from the
			// prior — re-reading a signal the router already has. It buys
			// no information; it is the free fallback, not a purchase.
			g = 0
		}
		v := g / (m.cfg.OverheadCents + m.perQuestionCents(b))
		if v > bestV {
			best, bestV = b, v
		}
		if b.cfg.Machine && v > bestFreeV {
			bestFree, bestFreeV = b, v
		}
	}
	// Exhaustion is a budget outcome, so judge it before the purchase
	// floor can demote a still-affordable paid backend.
	if sawUnaffordable && (best == nil || best.cfg.Machine) {
		m.exhausted = true
		m.rec.Count(MetricBudgetExhausted, 1)
	}
	// The purchase floor: near-certain priors make every answer nearly
	// worthless, so don't pay for one when a free fallback exists.
	if best != nil && !best.cfg.Machine && bestFree != nil && bestV < m.cfg.MinValue {
		best = bestFree
	}
	return best
}

// affordable reports whether routing one more question to b fits the
// budget: free for machine backends and already-open HITs, a full
// CentsPerHIT when a new HIT would have to be opened.
func (m *Market) affordable(b *backendState) bool {
	if b.cfg.Machine || m.cfg.BudgetCents < 0 {
		return true
	}
	if len(b.buf) > 0 {
		return true // the open HIT is already paid for
	}
	return m.spent+m.effCents(b) <= m.cfg.BudgetCents
}

// perQuestionCents is b's marginal price per question at full packing.
func (m *Market) perQuestionCents(b *backendState) float64 {
	if b.cfg.Machine {
		return 0
	}
	return float64(m.effCents(b)) / float64(b.cfg.PairsPerHIT)
}

// effCents is b's current CentsPerHIT with any active price spikes
// applied.
func (m *Market) effCents(b *backendState) int {
	c := b.cfg.CentsPerHIT
	for _, s := range m.cfg.Spikes {
		if s.Backend == b.cfg.ID && m.routed >= s.After && s.Factor > 0 {
			c = int(math.Ceil(float64(c) * s.Factor))
		}
	}
	return c
}

// openHIT charges a new HIT on b at the current effective price.
func (m *Market) openHIT(b *backendState) {
	b.openCents = m.effCents(b)
	m.spent += b.openCents
	m.pendingHITs++
	m.pendingCents += b.openCents
	m.rec.Count(BackendMetric(b.cfg.ID, "hits"), 1)
	m.rec.Count(BackendMetric(b.cfg.ID, "cents"), int64(b.openCents))
	m.rec.Count(MetricSpendCents, int64(b.openCents))
}

// flush consults b's source for every question in its open HIT,
// records the answers into out (indexed by the caller's batch
// positions), folds positives into the transitive closure, splits the
// HIT's price across its occupants in the ledger, and draws the HIT's
// simulated latency. A HIT is posted as a unit, so a source with a
// batch path (ReliableSource's bounded worker pool) answers its pairs
// concurrently — a faulty backend's retry deadlines then overlap
// instead of stacking serially — and a cancellable one stops with ctx,
// whose error is then the only one flush returns.
func (m *Market) flush(ctx context.Context, b *backendState, out []float64) (time.Duration, error) {
	perPair := float64(b.openCents) / float64(len(b.buf))
	qp := make([]record.Pair, len(b.buf))
	for i, q := range b.buf {
		qp[i] = q.p
	}
	scores, err := crowd.AnswerBatch(ctx, b.cfg.Source, qp)
	if err != nil {
		return 0, err
	}
	for i, q := range b.buf {
		fc := scores[i]
		out[q.idx] = fc
		m.answered[q.p] = fc
		m.union(q.p, fc)
		m.ledger[q.p] = Charge{Backend: b.cfg.ID, Cents: perPair}
	}
	b.buf = b.buf[:0]
	lat := m.drawLatency(b.cfg.Latency)
	if lat > 0 {
		m.rec.Observe(BackendMetric(b.cfg.ID, "hit_latency_seconds"), lat.Seconds())
	}
	return lat, nil
}

// drawLatency samples a log-normal latency around the backend's median.
func (m *Market) drawLatency(median time.Duration) time.Duration {
	if median <= 0 {
		return 0
	}
	return time.Duration(float64(median) * math.Exp(0.25*m.rng.NormFloat64()))
}

// unionThreshold is the minimum crowd confidence for an answer to
// enter the transitive closure.
const unionThreshold = 0.9

// union folds a positive answer into the transitive closure. Membership
// is gated conservatively — a near-unanimous crowd positive that the
// machine prior does not contradict — because inferred answers are free
// and wrong ones cascade: one bad link merges two entities and every
// short-circuit across the merge compounds the error. (A bare majority
// from a noisy backend is wrong far too often to propagate for free.)
func (m *Market) union(p record.Pair, fc float64) {
	if fc < unionThreshold || m.prior(p) < 0.5 {
		return
	}
	ra, rb := m.find(p.Lo), m.find(p.Hi)
	if ra != rb {
		m.parent[ra] = rb
	}
}

// find is the union-find root lookup with path compression.
func (m *Market) find(id record.ID) record.ID {
	r, ok := m.parent[id]
	if !ok || r == id {
		return id
	}
	root := m.find(r)
	m.parent[id] = root
	return root
}

// orderBatch returns batch indices in asking order. OrderArrival keeps
// the input order; OrderConfidence groups questions into CrowdER-style
// clusters (pairs sharing a record) and asks clusters most-likely-
// duplicate first, likeliest pair first within each cluster.
func (m *Market) orderBatch(pairs []record.Pair, priors []float64) []int {
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	if m.cfg.Order != OrderConfidence {
		return idx
	}
	// Connected components over the batch's record ids.
	root := make(map[record.ID]record.ID, 2*len(pairs))
	var find func(record.ID) record.ID
	find = func(id record.ID) record.ID {
		r, ok := root[id]
		if !ok || r == id {
			return id
		}
		rr := find(r)
		root[id] = rr
		return rr
	}
	for _, p := range pairs {
		ra, rb := find(p.Lo), find(p.Hi)
		if ra != rb {
			root[ra] = rb
		}
	}
	type comp struct {
		max   float64 // best prior in the component
		first int     // earliest arrival index (tiebreak)
	}
	comps := make(map[record.ID]*comp)
	compOf := make([]record.ID, len(pairs))
	for i, p := range pairs {
		r := find(p.Lo)
		compOf[i] = r
		c, ok := comps[r]
		if !ok {
			comps[r] = &comp{max: priors[i], first: i}
			continue
		}
		if priors[i] > c.max {
			c.max = priors[i]
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ca, cb := comps[compOf[idx[a]]], comps[compOf[idx[b]]]
		if ca != cb {
			if ca.max != cb.max {
				return ca.max > cb.max
			}
			return ca.first < cb.first
		}
		if priors[idx[a]] != priors[idx[b]] {
			return priors[idx[a]] > priors[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// infoGain is the mutual information (in bits) between a backend's
// answer and the truth, given the prior duplicate probability p and the
// backend's symmetric error rate e: H(p(1-e) + (1-p)e) - H(e). It is
// zero when the prior is certain or the backend is a coin flip, and
// maximal for a hard question sent to an accurate backend.
func infoGain(p, e float64) float64 {
	q := p*(1-e) + (1-p)*e
	g := entropy(q) - entropy(e)
	if g < 0 {
		return 0
	}
	return g
}

// entropy is the binary entropy function in bits.
func entropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
