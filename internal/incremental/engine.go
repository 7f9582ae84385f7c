package incremental

import (
	"fmt"
	"math"

	"acd/internal/blocking"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/unionfind"
)

// Record is one input record for Engine.Add: raw fields plus an optional
// ground-truth entity label (used only by evaluation, never by the
// algorithms).
type Record struct {
	// Fields are the record's named attribute values.
	Fields map[string]string
	// Entity is the optional ground-truth entity label ("" = unknown).
	Entity string
	// GID is the record's global id when the engine is one shard of a
	// sharded group (the router assigns dense global ids across shards).
	// Standalone engines leave it 0; it is journaled but never consulted
	// by the engine itself.
	GID int
}

// Config configures an Engine. The engine itself reads the pipeline
// fields; the journal fields are read by whoever owns the engine's log
// (internal/shard) and mean nothing to a bare engine.
type Config struct {
	// Tau is the pruning threshold for the incremental blocking index.
	// Unless TauSet is true, the zero value means pruning.DefaultTau.
	Tau float64
	// TauSet marks Tau as explicit (mirrors pruning.Options).
	TauSet bool
	// Epsilon is PC-Pivot's wasted-pair budget; 0 means
	// core.DefaultEpsilon.
	Epsilon float64
	// RefineX is PC-Refine's budget divisor; 0 means refine.DefaultX.
	RefineX int
	// Seed derives the per-round pivot permutation (round r uses
	// Seed + r), so a run is reproducible given the same input order.
	Seed int64
	// Source answers crowd questions. Nil falls back to the machine
	// similarity scores themselves (provenance "machine") — useful for
	// crowd-free operation and tests.
	Source crowd.Source
	// Obs, when set, receives engine and crowd metrics. Nil records
	// nothing.
	Obs *obs.Recorder
	// CheckpointEvery writes a compacted snapshot after this many
	// journal events; 0 disables automatic checkpoints.
	CheckpointEvery int
	// Commit is the journal group-commit policy. The zero value commits
	// once per request per journal; a nonzero Window additionally holds
	// the group open so concurrent requests share its single fsync.
	// Acknowledgments are pipelined either way.
	Commit journal.GroupPolicy
	// RotateBytes rotates the journal's live WAL segment once it grows
	// past this size; 0 disables rotation.
	RotateBytes int64
}

// EffectiveTau resolves the configured pruning threshold: Tau when set
// (explicitly via TauSet or by being nonzero), pruning.DefaultTau
// otherwise. The shard router uses it to build its global probe index
// with exactly the threshold its shard engines use.
func (c Config) EffectiveTau() float64 {
	if c.TauSet || c.Tau != 0 {
		return c.Tau
	}
	return pruning.DefaultTau
}

func (c Config) effectiveEpsilon() float64 {
	if c.Epsilon != 0 {
		return c.Epsilon
	}
	return core.DefaultEpsilon
}

// Engine is a live deduplication engine and a pure state machine: every
// state change is one journal.Event folded in by Apply, and the engine
// does no I/O of its own. Add, AddAnswer and Resolve build the events a
// bare in-memory engine needs and Apply them; a durable owner
// (internal/shard) logs each event first and calls Apply itself.
// Engines are not safe for concurrent use; callers serialize access.
type Engine struct {
	cfg Config

	records []journal.RecordData
	index   *blocking.IncrementalIndex
	pending []blocking.ScoredPair // candidate pairs not yet covered by a resolve
	uf      *unionfind.Growable

	round        int
	resolvedUpTo int // records with id below this are clustered

	answers     map[record.Pair]float64
	answerOrder []record.Pair // first-crowdsourced order, for deterministic priming
	answerSrc   map[record.Pair]string
}

// New returns an empty engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:       cfg,
		index:     blocking.NewIncrementalIndex(cfg.EffectiveTau()),
		uf:        &unionfind.Growable{},
		answers:   make(map[record.Pair]float64),
		answerSrc: make(map[record.Pair]string),
	}
}

// Rebuild constructs an engine in the exact state described by a
// checkpoint (nil for none) plus the events after it — the reference
// fold the crash-point and replication tests compare against.
func Rebuild(cfg Config, cp *journal.Checkpoint, events []journal.Event) (*Engine, error) {
	e := New(cfg)
	if cp != nil {
		if err := e.ApplyCheckpoint(cp); err != nil {
			return nil, err
		}
	}
	for _, ev := range events {
		if err := e.Apply(ev); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Len returns the number of records the engine holds.
func (e *Engine) Len() int { return len(e.records) }

// Round returns the number of completed resolve passes.
func (e *Engine) Round() int { return e.round }

// ResolvedUpTo returns the count of records covered by the latest
// resolve pass; records with higher ids are still singleton-pending.
func (e *Engine) ResolvedUpTo() int { return e.resolvedUpTo }

// PendingPairs returns the number of candidate pairs awaiting the next
// resolve pass.
func (e *Engine) PendingPairs() int { return len(e.pending) }

// PendingScored returns a copy of the scored candidate pairs awaiting
// the next resolve pass. The shard router gathers these (translated to
// global ids) when assembling a global ResolveState.
func (e *Engine) PendingScored() []blocking.ScoredPair {
	return append([]blocking.ScoredPair(nil), e.pending...)
}

// AnsweredPairs returns a copy of every pair with a cached answer, in
// first-cached order. Values are read back through Answer.
func (e *Engine) AnsweredPairs() []record.Pair {
	return append([]record.Pair(nil), e.answerOrder...)
}

// Record returns the stored form of record id.
func (e *Engine) Record(id int) journal.RecordData { return e.records[id] }

// RecordEvent builds the event that adds r as record id.
func RecordEvent(id int, r Record) journal.Event {
	return journal.Event{Type: journal.EventRecordAdded, Record: &journal.RecordData{
		ID: id, GID: r.GID, Fields: r.Fields, Entity: r.Entity,
	}}
}

// AnswerEvent builds the event that caches fc for pair p — the one
// constructor of answer events, so provenance is journaled the same way
// wherever the pair is homed: crowd.DefaultSource is the omitted
// default.
func AnswerEvent(p record.Pair, fc float64, source string) journal.Event {
	if source == crowd.DefaultSource {
		source = ""
	}
	return journal.Event{Type: journal.EventAnswer, Answer: &journal.AnswerData{
		Lo: int(p.Lo), Hi: int(p.Hi), FC: fc, Source: source,
	}}
}

// ResolveEvent builds the event recording a resolve pass's effect: the
// clustering over the first resolvedUpTo records.
func ResolveEvent(round, resolvedUpTo int, clusters [][]int) journal.Event {
	return journal.Event{Type: journal.EventResolve, Resolve: &journal.ResolveData{
		Round: round, ResolvedUpTo: resolvedUpTo, Clusters: clusters,
	}}
}

// Add appends records to the engine and returns their dense ids.
func (e *Engine) Add(recs ...Record) ([]int, error) {
	ids := make([]int, 0, len(recs))
	for _, r := range recs {
		ev := RecordEvent(len(e.records), r)
		if err := e.Apply(ev); err != nil {
			return ids, err
		}
		ids = append(ids, ev.Record.ID)
	}
	return ids, nil
}

// ValidateAnswer checks whether (lo,hi,fc) is an answer AddAnswer would
// accept, without changing any state. Callers with a batch of answers
// validate the whole batch first so a rejection leaves nothing applied.
func (e *Engine) ValidateAnswer(lo, hi int, fc float64) error {
	if lo < 0 || lo >= hi || hi >= len(e.records) {
		return fmt.Errorf("incremental: answer pair (%d,%d) outside the record universe [0,%d)", lo, hi, len(e.records))
	}
	if math.IsNaN(fc) || math.IsInf(fc, 0) || fc < 0 || fc > 1 {
		return fmt.Errorf("incremental: answer fc %v outside [0,1]", fc)
	}
	return nil
}

// AddAnswer feeds an externally-obtained crowd answer into the engine
// cache, so future resolves get it for free. The first answer for a
// pair wins; re-adding a known pair is a silent no-op (idempotent
// replay). Source labels provenance; "" means crowd.DefaultSource.
func (e *Engine) AddAnswer(lo, hi int, fc float64, source string) error {
	if err := e.ValidateAnswer(lo, hi, fc); err != nil {
		return err
	}
	return e.Apply(AnswerEvent(record.MakePair(record.ID(lo), record.ID(hi)), fc, source))
}

// Answer returns the cached crowd answer for a pair, if any.
func (e *Engine) Answer(lo, hi int) (fc float64, ok bool) {
	if lo < 0 || lo >= hi {
		return 0, false
	}
	fc, ok = e.answers[record.MakePair(record.ID(lo), record.ID(hi))]
	return fc, ok
}

// AnswerCount returns the number of cached crowd answers.
func (e *Engine) AnswerCount() int { return len(e.answers) }

// Clusters returns the current clustering over all records in canonical
// form (members ascending, clusters by first member). Records added
// since the last resolve appear as singletons.
func (e *Engine) Clusters() [][]int {
	e.uf.Grow(len(e.records))
	return e.uf.Sets(len(e.records))
}

// Snapshot captures the engine's full state as a checkpoint. Two
// engines are in identical state exactly when their snapshots are
// byte-identical. Seq is left 0: it is a journal position, which the
// log writing the checkpoint stamps.
func (e *Engine) Snapshot() *journal.Checkpoint {
	answers := make([]journal.AnswerData, 0, len(e.answerOrder))
	for _, p := range e.answerOrder {
		answers = append(answers, journal.AnswerData{
			Lo: int(p.Lo), Hi: int(p.Hi),
			FC:     e.answers[p],
			Source: e.answerSrc[p],
		})
	}
	return &journal.Checkpoint{
		Round:        e.round,
		ResolvedUpTo: e.resolvedUpTo,
		Records:      append([]journal.RecordData(nil), e.records...),
		Answers:      answers,
		Clusters:     e.Clusters(),
		Stats:        journal.IndexStats{Records: e.index.Len(), Postings: e.index.Postings()},
	}
}

// SourceMachine is the provenance label for answers synthesized from
// machine similarity scores (Config.Source == nil).
const SourceMachine = "machine"

// newResolveSession builds the crowd session a resolve pass uses over
// the configured source (or the machine fallback over the scoped
// scores). The session's observer hands every iteration's fresh answers
// to the sink — which journals and caches them — the moment the batch is
// answered, before the algorithm acts on it. A crash after the answer
// but before the resolve effect therefore recovers with the answer
// cached, and the next resolve primes it for free, preserving
// questions_answered == oracle_invocations across restarts. A sink
// failure aborts the session: nothing more is bought that could not be
// journaled.
func newResolveSession(cfg Config, scores map[record.Pair]float64, sink AnswerSink) *crowd.Session {
	src, label := cfg.Source, ""
	if src == nil {
		src, label = machineSource{scores: scores}, SourceMachine
	}
	sess := crowd.NewSession(src)
	if cfg.Obs != nil {
		sess.SetRecorder(cfg.Obs)
	}
	sess.Observe(func(fresh []record.Pair, fcs []float64) error {
		return sink(fresh, fcs, label)
	})
	return sess
}

// machineSource is the crowd-free fallback: it answers a pair with its
// machine similarity score from the scoped candidate set (0 for
// non-candidates, matching the paper's pruning convention).
type machineSource struct {
	scores map[record.Pair]float64
}

// Score implements crowd.Source.
func (m machineSource) Score(p record.Pair) float64 { return m.scores[p] }

// Config implements crowd.Source.
func (m machineSource) Config() crowd.Config { return crowd.ThreeWorker(0) }
