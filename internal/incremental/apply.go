package incremental

import (
	"fmt"

	"acd/internal/blocking"
	"acd/internal/journal"
	"acd/internal/record"
	"acd/internal/unionfind"
)

// ApplyCheckpoint installs a compacted snapshot into an empty engine:
// records re-feed the blocking index (pending pairs are derived, not
// stored — every pending pair has its Hi side at or beyond
// ResolvedUpTo, since resolves always cover a prefix of the id space),
// answers repopulate the cache, and the clustering is applied directly.
// A checkpoint replaces history, it does not merge into it: a non-empty
// engine refuses.
func (e *Engine) ApplyCheckpoint(cp *journal.Checkpoint) error {
	if len(e.records) != 0 || e.round != 0 || len(e.answers) != 0 {
		return fmt.Errorf("incremental: checkpoint applied to a non-empty engine")
	}
	for i, data := range cp.Records {
		if data.ID != i {
			return fmt.Errorf("incremental: checkpoint record %d carries id %d", i, data.ID)
		}
		e.applyRecord(data)
	}
	if cp.ResolvedUpTo < 0 || cp.ResolvedUpTo > len(e.records) {
		return fmt.Errorf("incremental: checkpoint resolvedUpTo %d outside [0,%d]", cp.ResolvedUpTo, len(e.records))
	}
	e.round = cp.Round
	e.resolvedUpTo = cp.ResolvedUpTo
	e.pending = filterPending(e.pending, cp.ResolvedUpTo)
	for _, a := range cp.Answers {
		e.applyAnswer(a)
	}
	if err := e.applyClusters(cp.Clusters); err != nil {
		return fmt.Errorf("incremental: checkpoint clusters: %w", err)
	}
	if got := (journal.IndexStats{Records: e.index.Len(), Postings: e.index.Postings()}); got != cp.Stats {
		return fmt.Errorf("incremental: rebuilt index %+v does not match checkpoint stats %+v", got, cp.Stats)
	}
	return nil
}

// Apply folds one event into the engine — the only way engine state
// changes, whether the event was just built by Add/AddAnswer/Resolve,
// just logged by a durable owner, read back by recovery, or shipped to a
// follower. The fold is pure: the state after applying a prefix of
// events is exactly the state the live engine had when the last of them
// was appended, which is what makes crash-point recovery and follower
// replay byte-identical. ev.Seq is a journal position and only labels
// errors.
func (e *Engine) Apply(ev journal.Event) error {
	switch ev.Type {
	case journal.EventRecordAdded:
		if ev.Record == nil {
			return fmt.Errorf("incremental: event %d: record-added without payload", ev.Seq)
		}
		if ev.Record.ID != len(e.records) {
			return fmt.Errorf("incremental: event %d: record id %d, expected %d", ev.Seq, ev.Record.ID, len(e.records))
		}
		e.applyRecord(*ev.Record)
	case journal.EventAnswer:
		if ev.Answer == nil {
			return fmt.Errorf("incremental: event %d: answer without payload", ev.Seq)
		}
		e.applyAnswer(*ev.Answer)
	case journal.EventResolve:
		d := ev.Resolve
		if d == nil {
			return fmt.Errorf("incremental: event %d: resolve without payload", ev.Seq)
		}
		if d.ResolvedUpTo != len(e.records) {
			return fmt.Errorf("incremental: event %d: resolve covers %d records, engine has %d", ev.Seq, d.ResolvedUpTo, len(e.records))
		}
		if err := e.applyClusters(d.Clusters); err != nil {
			return fmt.Errorf("incremental: event %d: %w", ev.Seq, err)
		}
		e.round = d.Round
		e.resolvedUpTo = d.ResolvedUpTo
		e.pending = filterPending(e.pending, d.ResolvedUpTo)
	default:
		return fmt.Errorf("incremental: event %d: unknown type %q", ev.Seq, ev.Type)
	}
	return nil
}

func (e *Engine) applyRecord(data journal.RecordData) {
	e.records = append(e.records, data)
	text := record.New(record.ID(data.ID), data.Fields).Text()
	e.pending = append(e.pending, e.index.Add(text)...)
	e.uf.Grow(len(e.records))
	e.cfg.Obs.Count(MetricRecordsAdded, 1)
}

// applyAnswer caches one answer, keep-first: a pair that already has an
// answer is left alone, so replaying or re-sending an answer is a
// no-op.
func (e *Engine) applyAnswer(a journal.AnswerData) {
	p := record.MakePair(record.ID(a.Lo), record.ID(a.Hi))
	if _, known := e.answers[p]; known {
		return
	}
	e.answers[p] = a.FC
	e.answerOrder = append(e.answerOrder, p)
	if a.Source != "" {
		e.answerSrc[p] = a.Source
	}
	e.cfg.Obs.Count(MetricAnswersCached, 1)
}

// applyClusters replaces the union-find with the journaled partition —
// the effect-application at the heart of the fold. Resolve effects are
// monotone (clusters only ever merge), so installing the latest
// clustering loses nothing from earlier ones.
func (e *Engine) applyClusters(clusters [][]int) error {
	uf := &unionfind.Growable{}
	uf.Grow(len(e.records))
	for _, set := range clusters {
		for _, m := range set {
			if m < 0 || m >= len(e.records) {
				return fmt.Errorf("cluster member %d outside universe [0,%d)", m, len(e.records))
			}
		}
		for _, m := range set[1:] {
			uf.Union(set[0], m)
		}
	}
	e.uf = uf
	return nil
}

// filterPending keeps the candidate pairs not covered by a resolve up
// to resolvedUpTo. New records always take the Hi side of their pairs
// (ids are dense and increasing), so coverage is a pure Hi test.
func filterPending(pending []blocking.ScoredPair, resolvedUpTo int) []blocking.ScoredPair {
	var out []blocking.ScoredPair
	for _, sp := range pending {
		if int(sp.Pair.Hi) >= resolvedUpTo {
			out = append(out, sp)
		}
	}
	return out
}
