package shard

import (
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
)

// log is one journal's durability: the store, its group-commit layer,
// the automatic-checkpoint cadence, the sticky checkpoint error and the
// journal counters — the only code in the serving stack that writes to
// disk. A group holds one per shard and one for the router. A nil *log
// is the volatile no-op (appends are instantly durable, checkpoints
// write nothing), so callers have one code path whether or not there is
// a journal. A log is not safe for concurrent use, DurableSeq excepted:
// its owner serializes access.
type log struct {
	store    *journal.Store
	commit   *journal.Committer
	obs      *obs.Recorder
	snapshot func() *journal.Checkpoint // the state this journal's checkpoints capture

	every int   // checkpoint after this many events; 0 = only on request
	since int   // events appended since the last checkpoint
	cpErr error // latest automatic-checkpoint failure; a successful checkpoint clears it
}

// durable is the acknowledgment of an event that needs no fsync.
var durable = func() <-chan error {
	ch := make(chan error)
	close(ch)
	return ch
}()

// openLog recovers the journal in fs and opens it for appending. cfg
// supplies the checkpoint cadence and the recorder for the journal
// counters; opt and pol are the store and group-commit settings, which
// differ between shard journals (cfg's) and the router's (zero: no
// window, no rotation); snapshot captures the state the
// journal's checkpoints hold.
func openLog(fs journal.FS, opt journal.Options, pol journal.GroupPolicy, cfg incremental.Config, snapshot func() *journal.Checkpoint) (*log, journal.Recovered, error) {
	store, recovered, err := journal.OpenOptions(fs, opt)
	if err != nil {
		return nil, recovered, err
	}
	return &log{
		store:    store,
		commit:   journal.NewCommitter(store, pol),
		obs:      cfg.Obs,
		snapshot: snapshot,
		every:    cfg.CheckpointEvery,
	}, recovered, nil
}

// AppendAsync writes one event without blocking on durability; the
// returned channel resolves once the commit group holding it has
// synced, and only then may the event be acknowledged. Whoever waits on
// it must first close the group (CloseGroup, Flush, or Append for a lone
// event). An immediate error means nothing was written. After a failed
// commit the journal is poisoned and every later append fails — restart
// to recover.
func (l *log) AppendAsync(ev journal.Event) (<-chan error, error) {
	if l == nil {
		return durable, nil
	}
	_, wait, err := l.commit.AppendAsync(ev)
	if err != nil {
		return nil, err
	}
	l.since++
	l.obs.Count(incremental.MetricJournalEvents, 1)
	return wait, nil
}

// Append writes one event and blocks until it is durable. The open
// commit group is expedited rather than waiting out its window.
func (l *log) Append(ev journal.Event) error {
	if l == nil {
		return nil
	}
	wait, err := l.AppendAsync(ev)
	if err != nil {
		return err
	}
	l.commit.Expedite()
	return <-wait
}

// CloseGroup ends a request's appends to this journal: everything it
// appended commits with one fsync — now, or with a commit window once
// the window has let concurrent requests join.
func (l *log) CloseGroup() {
	if l != nil {
		l.commit.CloseGroup()
	}
}

// Flush blocks until every appended event is durable — the barrier a
// resolve or checkpoint takes first, and the one commit of a batch
// appended under a barrier or the router lock, where nobody can join.
func (l *log) Flush() error {
	if l == nil {
		return nil
	}
	return l.commit.Flush()
}

// Checkpoint writes the current state as the journal's compacted
// snapshot, stamped with the journal's position, letting it drop fully
// covered WAL segments.
func (l *log) Checkpoint() error {
	if l == nil {
		return nil
	}
	cp := l.snapshot()
	cp.Seq = l.store.NextSeq() - 1
	if err := l.commit.WriteCheckpoint(cp); err != nil {
		return err
	}
	l.since = 0
	l.cpErr = nil
	l.obs.Count(incremental.MetricCheckpoints, 1)
	return nil
}

// autoCheckpoint writes the periodic checkpoint once enough events have
// accumulated. It runs after a mutation that is already logged and
// applied, so a failure must not fail (or un-ack) that mutation: the WAL
// still holds every event the missed snapshot would have covered. The
// failure is held in cpErr and counted instead of vanishing, and since
// is left alone so the next eligible event retries.
func (l *log) autoCheckpoint() {
	if l == nil || l.every <= 0 || l.since < l.every {
		return
	}
	if err := l.Checkpoint(); err != nil {
		l.cpErr = err
		l.obs.Count(incremental.MetricCheckpointErrors, 1)
	}
}

// DurableSeq returns the journal's durable watermark: every event at or
// below it is on stable storage. Safe to call concurrently with appends
// — replication streamers poll it.
func (l *log) DurableSeq() int64 {
	if l == nil {
		return 0
	}
	return l.store.DurableSeq()
}

// Close flushes outstanding commit groups and closes the journal.
func (l *log) Close() error {
	if l == nil {
		return nil
	}
	return l.commit.Close()
}
