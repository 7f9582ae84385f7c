package crowd

import (
	"context"
	"fmt"
	"math/rand"

	"acd/internal/obs"
	"acd/internal/record"
)

// Config describes an AMT collection setting.
type Config struct {
	// Workers is the number of workers voting on each pair (3 or 5 in
	// the paper).
	Workers int
	// PairsPerHIT is how many record pairs are packed into a single HIT
	// (20 under the 3-worker setting, 10 under the 5-worker setting).
	PairsPerHIT int
	// CentsPerHIT is the reward per completed HIT (2 in the paper).
	CentsPerHIT int
	// Seed makes the simulated workers deterministic.
	Seed int64
}

// ThreeWorker returns the paper's 3-worker AMT setting.
func ThreeWorker(seed int64) Config {
	return Config{Workers: 3, PairsPerHIT: 20, CentsPerHIT: 2, Seed: seed}
}

// FiveWorker returns the paper's more stringent 5-worker setting.
func FiveWorker(seed int64) Config {
	return Config{Workers: 5, PairsPerHIT: 10, CentsPerHIT: 2, Seed: seed}
}

// AnswerSet is the simulated equivalent of the paper's answer file F: a
// fixed crowd score f_c for every candidate pair, drawn once.
type AnswerSet struct {
	fc      map[record.Pair]float64
	truth   map[record.Pair]bool
	votes   map[record.Pair]int     // per-pair vote counts; nil = config.Workers
	source  map[record.Pair]string  // per-pair provenance; nil = DefaultSource
	backend map[record.Pair]string  // per-pair marketplace backend; nil = none
	price   map[record.Pair]float64 // per-pair price paid in cents; nil = 0
	config  Config
	rec     *obs.Recorder
}

// DefaultSource is the provenance recorded for answers that never had an
// explicit one set: an ordinary crowd collection. Persisted answer files
// omit-default to it, which keeps v1 files (no source column) loadable.
const DefaultSource = "crowd"

// SetSource records where a pair's answer came from ("crowd", "machine",
// "client", ...). The journal of the incremental engine persists this
// provenance so a replayed answer keeps its origin across restarts.
// Setting the empty string resets the pair to DefaultSource.
func (a *AnswerSet) SetSource(p record.Pair, src string) {
	if src == "" || src == DefaultSource {
		if a.source != nil {
			delete(a.source, p)
		}
		return
	}
	if a.source == nil {
		a.source = make(map[record.Pair]string)
	}
	a.source[p] = src
}

// Source returns the recorded provenance of a pair's answer,
// DefaultSource when none was ever set.
func (a *AnswerSet) Source(p record.Pair) string {
	if a.source != nil {
		if s, ok := a.source[p]; ok {
			return s
		}
	}
	return DefaultSource
}

// SetCharge records marketplace provenance for a pair's answer: the id
// of the backend that sold it and the price paid in cents (fractional —
// a pair's share of its HIT's reward). The zero charge (empty backend,
// zero cents) resets the pair to unpriced, dropping it from the
// serialized form; answer files persist charges as the v3 backend and
// price columns.
func (a *AnswerSet) SetCharge(p record.Pair, backend string, cents float64) {
	if backend == "" && cents == 0 {
		if a.backend != nil {
			delete(a.backend, p)
		}
		if a.price != nil {
			delete(a.price, p)
		}
		return
	}
	if a.backend == nil {
		a.backend = make(map[record.Pair]string)
		a.price = make(map[record.Pair]float64)
	}
	a.backend[p] = backend
	a.price[p] = cents
}

// Charge returns the recorded marketplace provenance of a pair's answer:
// the backend id and the cents paid, or ("", 0) for a pair that never
// went through a marketplace.
func (a *AnswerSet) Charge(p record.Pair) (backend string, cents float64) {
	if a.backend == nil {
		return "", 0
	}
	return a.backend[p], a.price[p]
}

// BuildAnswers simulates the one-time posting of all candidate pairs to
// the crowd. truth reports ground-truth duplicates; difficulty gives each
// pair's per-worker error probability. Each pair's vote is drawn from an
// independent RNG keyed by (seed, pair), so answers do not depend on the
// iteration order of pairs.
func BuildAnswers(pairs []record.Pair, truth func(record.Pair) bool, difficulty func(record.Pair) float64, cfg Config) *AnswerSet {
	if cfg.Workers <= 0 || cfg.Workers%2 == 0 {
		panic(fmt.Sprintf("crowd: Workers must be odd and positive, got %d", cfg.Workers))
	}
	a := &AnswerSet{
		fc:     make(map[record.Pair]float64, len(pairs)),
		truth:  make(map[record.Pair]bool, len(pairs)),
		config: cfg,
	}
	for _, p := range pairs {
		isDup := truth(p)
		d := difficulty(p)
		rng := rand.New(rand.NewSource(pairSeed(cfg.Seed, p)))
		yes := 0
		for w := 0; w < cfg.Workers; w++ {
			correct := rng.Float64() >= d
			if correct == isDup {
				yes++
			}
		}
		a.fc[p] = float64(yes) / float64(cfg.Workers)
		a.truth[p] = isDup
	}
	return a
}

// FixedAnswers builds an answer set with prescribed crowd scores, used by
// tests replaying the paper's worked examples and by ablations that need
// exact f_c values. Ground truth for ErrorRate purposes is taken as
// fc > 0.5.
func FixedAnswers(scores map[record.Pair]float64, cfg Config) *AnswerSet {
	if cfg.Workers <= 0 {
		cfg = Config{Workers: 3, PairsPerHIT: 20, CentsPerHIT: 2}
	}
	a := &AnswerSet{
		fc:     make(map[record.Pair]float64, len(scores)),
		truth:  make(map[record.Pair]bool, len(scores)),
		config: cfg,
	}
	for p, fc := range scores {
		a.fc[p] = fc
		a.truth[p] = fc > 0.5
	}
	return a
}

// pairSeed derives a deterministic per-pair RNG seed.
func pairSeed(seed int64, p record.Pair) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(p.Lo)*0xbf58476d1ce4e5b9 + uint64(p.Hi)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 29
	return int64(h & 0x7fffffffffffffff)
}

// SetRecorder attaches a metrics recorder: every Score call — the oracle
// invocations of the simulated crowd — increments MetricOracleInvocations
// on it. Sessions created over this answer set inherit the recorder (see
// NewSession), so one SetRecorder call instruments a whole run. Must be
// called before the answer set is shared across goroutines.
func (a *AnswerSet) SetRecorder(rec *obs.Recorder) { a.rec = rec }

// Recorder implements RecorderCarrier.
func (a *AnswerSet) Recorder() *obs.Recorder { return a.rec }

// Score returns the crowd score f_c for a pair. Asking about a pair
// outside the candidate set panics: the algorithms only ever issue
// candidate pairs, so anything else is a bug.
func (a *AnswerSet) Score(p record.Pair) float64 {
	fc, ok := a.fc[p]
	if !ok {
		panic(fmt.Sprintf("crowd: pair %v was never posted (not a candidate)", p))
	}
	a.rec.Count(MetricOracleInvocations, 1)
	return fc
}

// ScoreChecked implements CheckedSource: it is Score without the panic,
// for the fault-tolerant path. Asking about a pair outside the candidate
// set returns ErrNotCandidate (and does not count an oracle invocation);
// the algorithms only ever issue candidates, so ReliableSource turns the
// error into a fallback instead of crashing the run.
func (a *AnswerSet) ScoreChecked(p record.Pair) (float64, error) {
	fc, ok := a.fc[p]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNotCandidate, p)
	}
	a.rec.Count(MetricOracleInvocations, 1)
	return fc, nil
}

// Has reports whether p is in the answer set.
func (a *AnswerSet) Has(p record.Pair) bool {
	_, ok := a.fc[p]
	return ok
}

// Len returns the number of answered pairs.
func (a *AnswerSet) Len() int { return len(a.fc) }

// Config returns the collection setting the answers were drawn under.
func (a *AnswerSet) Config() Config { return a.config }

// ErrorRate returns the fraction of pairs whose majority-vote answer
// (f_c > 0.5) disagrees with ground truth — the "crowd error rate"
// columns of Table 3.
func (a *AnswerSet) ErrorRate() float64 {
	if len(a.fc) == 0 {
		return 0
	}
	wrong := 0
	for p, fc := range a.fc {
		if (fc > 0.5) != a.truth[p] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(a.fc))
}

// Stats summarizes the crowdsourcing overhead of one algorithm run, the
// three cost axes reported in Section 6: pairs crowdsourced (Figure 7),
// crowd iterations (Figures 5, 8), and, additionally, HITs and cents.
type Stats struct {
	// Pairs is the number of distinct record pairs issued to the crowd.
	Pairs int
	// Iterations is the number of batches (rounds of HITs posted and
	// waited on).
	Iterations int
	// HITs is the number of HITs, packing PairsPerHIT pairs per HIT
	// within each batch.
	HITs int
	// Cents is HITs × CentsPerHIT.
	Cents int
	// Votes is the total number of worker votes collected, when the
	// source tracks them (the VoteCounter interface); with fixed
	// allocation it equals Pairs × Workers.
	Votes int
}

// VoteCounter is implemented by sources that know how many worker votes
// each pair consumed (the adaptive allocation of BuildAdaptiveAnswers).
type VoteCounter interface {
	VoteCount(p record.Pair) int
}

// Source is anything that can produce a crowd score for a candidate
// pair: the replayed AnswerSet used throughout the experiments, a live
// crowdsourcing-platform adapter, or a test double. Score may block (a
// live crowd takes minutes); Config describes the collection setting for
// HIT and cost accounting.
type Source interface {
	// Score returns f_c for a candidate pair. Implementations may panic
	// on pairs outside the candidate set; algorithms only issue
	// candidates.
	Score(p record.Pair) float64
	// Config returns the collection setting (worker count, HIT packing,
	// reward).
	Config() Config
}

// Biller is implemented by sources that do their own HIT and cost
// accounting — the marketplace packs each batch into per-backend HITs
// with per-backend prices, so the session's uniform Config()-derived
// math (ceil(fresh/PairsPerHIT) × CentsPerHIT) would be wrong for it.
// After resolving a batch the session drains the bill and books it
// verbatim into Stats and the crowd/hits and crowd/cents metrics. Only
// the Session asks for the bill, so a source must reach NewSession
// unwrapped for its billing to count: code that merely watches answers
// go by registers a Session.Observe hook instead of wrapping the source.
type Biller interface {
	// Bill returns the HITs posted and cents spent since the last call
	// and resets both. ok=false means the source has no billing
	// information for the interval and the caller must fall back to
	// Config()-derived accounting.
	Bill() (hits, cents int, ok bool)
}

// SourceFunc adapts a function to the Source interface, for live-crowd
// adapters and tests.
type SourceFunc struct {
	// Fn answers a single pair.
	Fn func(record.Pair) float64
	// Setting is returned by Config.
	Setting Config
}

// Score implements Source.
func (s SourceFunc) Score(p record.Pair) float64 { return s.Fn(p) }

// Config implements Source.
func (s SourceFunc) Config() Config { return s.Setting }

// AnswerBatch answers one batch from src through the richest path the
// source offers: the cancellable batch path when ctx is non-nil and src
// is a ContextBatchSource, else the batch path of a BatchSource, else
// one Score call per pair. It is the only place that ladder is spelled;
// Session.Ask and the marketplace's HIT flush both resolve through it.
// A non-nil error is the context's: the batch stopped early and no
// scores are returned.
func AnswerBatch(ctx context.Context, src Source, pairs []record.Pair) ([]float64, error) {
	if cbs, ok := src.(ContextBatchSource); ok && ctx != nil {
		return cbs.ScoreBatchCtx(ctx, pairs)
	}
	if bs, ok := src.(BatchSource); ok {
		return bs.ScoreBatch(pairs), nil
	}
	scores := make([]float64, len(pairs))
	for i, p := range pairs {
		scores[i] = src.Score(p)
	}
	return scores, nil
}

// Session gives one algorithm run access to a crowd source while
// accounting for everything it asks. It also maintains the set A of
// already-crowdsourced pairs that the refinement phase consults
// (Equations 7–8 count exactly the pairs outside A).
type Session struct {
	answers Source
	// A in first-crowdsourced order: order[i] was answered scores[i],
	// and known maps each pair's packed key to its position i.
	known   map[record.PairKey]int32
	order   []record.Pair
	scores  []float64
	stats   Stats
	rec     *obs.Recorder
	ctx     context.Context // nil = never cancelled
	observe func(fresh []record.Pair, scores []float64) error
	err     error // sticky: set once the campaign is aborted
}

// NewSession starts an accounting session over a crowd source. If the
// source carries a metrics recorder (RecorderCarrier — AnswerSet with
// SetRecorder does), the session adopts it and mirrors its accounting
// into crowd/* metrics; SetRecorder overrides the inherited recorder.
func NewSession(answers Source) *Session {
	s := &Session{
		answers: answers,
		known:   make(map[record.PairKey]int32),
	}
	if c, ok := answers.(RecorderCarrier); ok {
		s.rec = c.Recorder()
	}
	return s
}

// SetRecorder attaches (or, with nil, detaches) a metrics recorder,
// overriding any recorder inherited from the source. If the source also
// accepts a recorder (RecorderSetter — AnswerSet does), the recorder is
// pushed down so the oracle-invocation count stays in the same snapshot
// as the session's question accounting.
func (s *Session) SetRecorder(rec *obs.Recorder) {
	s.rec = rec
	if setter, ok := s.answers.(RecorderSetter); ok {
		setter.SetRecorder(rec)
	}
}

// Recorder returns the session's metrics recorder; nil when the session
// is uninstrumented (every obs method is nil-safe, so callers use the
// result without guarding). The crowd algorithms reach their recorder
// through here — the session already flows through every crowd phase.
func (s *Session) Recorder() *obs.Recorder { return s.rec }

// Bind attaches a cancellation context to the session. Once ctx is
// cancelled, every subsequent Ask returns zero scores without consulting
// the source or charging any accounting, and Err reports the
// cancellation — so the crowd iteration loops observe one failed batch
// and stop cleanly mid-campaign. A nil ctx detaches.
func (s *Session) Bind(ctx context.Context) { s.ctx = ctx }

// Observe registers the session's observer (nil removes it): fn is
// called once per crowd iteration with the fresh pairs and their scores,
// in the order the source was asked, after the batch is answered and
// accounted and before Ask returns. It is how progress callbacks and the
// incremental engine's journal sink watch answers go by without wrapping
// the source. A non-nil error from fn aborts the session exactly like a
// cancelled context: Err reports it and later Asks cost nothing.
func (s *Session) Observe(fn func(fresh []record.Pair, scores []float64) error) {
	s.observe = fn
}

// Err reports why the campaign aborted (context cancellation, a batch
// failure, or an observer error), or nil while the session is healthy.
// The crowd algorithms check it after every Ask; callers of the
// algorithms check it to tell a completed run from an interrupted one.
func (s *Session) Err() error { return s.err }

// abort marks the session failed; the first error sticks.
func (s *Session) abort(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Ask issues a batch of pairs to the crowd as one crowd iteration and
// returns their scores in order. Pairs already known from earlier batches
// are answered from the session cache for free; duplicates within the
// batch are charged once. A batch with no new pairs costs nothing — not
// even an iteration — since no HITs would be posted.
func (s *Session) Ask(pairs []record.Pair) []float64 {
	// A cancelled or aborted campaign answers nothing: zero scores, no
	// accounting, no source contact. Callers observe Err and stop.
	if s.err == nil && s.ctx != nil {
		if cerr := s.ctx.Err(); cerr != nil {
			s.abort(cerr)
		}
	}
	if s.err != nil {
		return make([]float64, len(pairs))
	}

	// Identify the distinct pairs this batch actually needs answered.
	// Each fresh pair is entered into known at the position it will
	// take in A, so a duplicate later in the batch finds it there; a
	// batch that fails takes those entries back out. at[i] is pairs[i]'s
	// position in A.
	var fresh []record.Pair
	at := make([]int32, len(pairs))
	for i, p := range pairs {
		k := p.Key()
		pos, ok := s.known[k]
		if !ok {
			pos = int32(len(s.order) + len(fresh))
			s.known[k] = pos
			fresh = append(fresh, p)
		}
		at[i] = pos
	}

	if len(fresh) > 0 {
		// Resolve the whole batch at once when the source supports it
		// (live crowds pay their latency once per iteration, not per
		// pair). A bound context routes through the cancellable batch
		// path; a batch that fails mid-flight aborts the campaign and
		// charges nothing.
		scores, err := AnswerBatch(s.ctx, s.answers, fresh)
		if err != nil {
			for _, p := range fresh {
				delete(s.known, p.Key())
			}
			s.abort(err)
			return make([]float64, len(pairs))
		}
		vc, _ := s.answers.(VoteCounter)
		votes := 0
		for _, p := range fresh {
			if vc != nil {
				votes += vc.VoteCount(p)
			} else {
				votes += s.answers.Config().Workers
			}
		}
		s.order = append(s.order, fresh...)
		s.scores = append(s.scores, scores...)
		s.stats.Votes += votes
		s.stats.Pairs += len(fresh)
		s.stats.Iterations++
		// A self-billing source (the marketplace) reports the HITs and
		// cents this batch actually cost across its backends; everything
		// else is billed at the uniform Config() rate.
		hits, cents, billed := 0, 0, false
		if b, ok := s.answers.(Biller); ok {
			hits, cents, billed = b.Bill()
		}
		if !billed {
			cfg := s.answers.Config()
			hits = (len(fresh) + cfg.PairsPerHIT - 1) / cfg.PairsPerHIT
			cents = hits * cfg.CentsPerHIT
		}
		s.stats.HITs += hits
		s.stats.Cents += cents

		s.rec.Count(MetricQuestionsAnswered, int64(len(fresh)))
		s.rec.Count(MetricIterations, 1)
		s.rec.Count(MetricHITs, int64(hits))
		s.rec.Count(MetricCents, int64(cents))
		s.rec.Count(MetricVotes, int64(votes))
		s.rec.Observe(MetricBatchSize, float64(len(fresh)))
		if s.rec.Tracing() {
			s.rec.Trace("crowd.iteration", map[string]any{
				"fresh": len(fresh), "hits": hits, "iteration": s.stats.Iterations,
			})
		}
		// The batch is bought and booked either way; an observer that
		// cannot keep up (a failed journal append) stops the campaign
		// before it buys another.
		if s.observe != nil {
			if err := s.observe(fresh, scores); err != nil {
				s.abort(err)
				return make([]float64, len(pairs))
			}
		}
	}
	s.rec.Count(MetricQuestionsIssued, int64(len(pairs)))
	s.rec.Count(MetricQuestionsCached, int64(len(pairs)-len(fresh)))

	out := make([]float64, len(pairs))
	for i, pos := range at {
		out[i] = s.scores[pos]
	}
	return out
}

// AskOne issues a single pair (a one-pair batch).
func (s *Session) AskOne(p record.Pair) float64 {
	return s.Ask([]record.Pair{p})[0]
}

// Prime inserts an already-known answer into the session's known set A
// without consulting the source and without charging any accounting or
// metrics — the seam that makes past answers free. The incremental
// engine uses it to seed each resolve pass with journal-replayed crowd
// answers and transitively inferred pairs, so a primed pair costs zero
// questions, zero HITs and zero oracle invocations when an algorithm
// later asks for it. Priming a pair the session already knows is a
// no-op: the first value sticks, matching Ask's cache semantics.
func (s *Session) Prime(p record.Pair, fc float64) {
	k := p.Key()
	if _, ok := s.known[k]; ok {
		return
	}
	s.known[k] = int32(len(s.order))
	s.order = append(s.order, p)
	s.scores = append(s.scores, fc)
}

// Known returns the crowd score of p if this session has already
// crowdsourced it (membership in the set A).
func (s *Session) Known(p record.Pair) (float64, bool) {
	pos, ok := s.known[p.Key()]
	if !ok {
		return 0, false
	}
	return s.scores[pos], true
}

// KnownCount returns |A| for this session.
func (s *Session) KnownCount() int { return len(s.order) }

// KnownOrdered returns the session's A as a slice in first-crowdsourced
// order. Because the algorithms issue pairs in a deterministic sequence,
// this order is reproducible across runs — unlike ranging over the
// KnownPairs map — so estimator rebuilds that consume it stay
// deterministic. The returned slice is a view; callers must not mutate
// it. KnownScores holds the scores in the same order.
func (s *Session) KnownOrdered() []record.Pair { return s.order }

// KnownScores returns the crowd scores of A aligned with KnownOrdered:
// KnownScores()[i] is the score of KnownOrdered()[i]. A only grows, so
// a caller that has consumed a prefix reads just the new tail. The
// returned slice is a view; callers must not mutate it.
func (s *Session) KnownScores() []float64 { return s.scores }

// KnownPairs returns a copy of the session's A as a map. Callers may
// mutate the returned map freely.
func (s *Session) KnownPairs() map[record.Pair]float64 {
	out := make(map[record.Pair]float64, len(s.order))
	for i, p := range s.order {
		out[p] = s.scores[i]
	}
	return out
}

// Stats returns the accumulated accounting.
func (s *Session) Stats() Stats { return s.stats }
