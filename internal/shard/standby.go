package shard

import (
	"fmt"
	"sync"

	"acd/internal/incremental"
	"acd/internal/journal"
)

// Standby is a follower's warm replica of a Group: the same folded
// state a leader holds, advanced one shipped journal event at a time,
// plus a cursor per journal. Every event goes through exactly the fold
// leader recovery runs, so a standby's engines are byte-identical to
// what a leader restart would rebuild at the same sequences. A standby
// only ever reads and folds; at promotion it is discarded and the
// follower's own journals are re-opened through the normal recovery
// path, which also recomputes the derived structures (probe index,
// handoff queue) a standby does not maintain.
//
// Standby is safe for concurrent use: the replication loop applies
// events while HTTP handlers read snapshots.
type Standby struct {
	mu      sync.Mutex
	st      *state
	applied map[string]int64 // journal name -> last applied seq
}

// NewStandby returns an empty warm replica shaped like a Group with
// the same Config. The engine config's journal knobs are ignored —
// a standby writes nothing.
func NewStandby(cfg Config) (*Standby, error) {
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	return &Standby{st: st, applied: make(map[string]int64)}, nil
}

// Apply folds one replicated event from the named journal into the
// replica. Events of one journal must arrive in sequence (the follower
// skips duplicates and refuses gaps before calling); events of
// different journals may interleave arbitrarily, exactly as recovery
// tolerates.
func (s *Standby) Apply(name string, ev journal.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, err := s.st.journalIndex(name)
	if err != nil {
		return err
	}
	if last := s.applied[name]; ev.Seq != last+1 {
		return fmt.Errorf("shard: %s event %d applied after %d", name, ev.Seq, last)
	}
	if err := s.st.apply(i, ev); err != nil {
		return err
	}
	s.applied[name] = ev.Seq
	return nil
}

// ApplyCheckpoint installs a shipped checkpoint from the named journal
// — the catch-up path when the leader compacted past the follower's
// cursor. Nothing of that journal may have been applied yet:
// checkpoints replace history, they do not merge into it.
func (s *Standby) ApplyCheckpoint(name string, cp *journal.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, err := s.st.journalIndex(name)
	if err != nil {
		return err
	}
	if s.applied[name] != 0 {
		return fmt.Errorf("shard: %s checkpoint at seq %d after events were applied", name, cp.Seq)
	}
	if err := s.st.applyCheckpoint(i, cp); err != nil {
		return err
	}
	s.applied[name] = cp.Seq
	return nil
}

// Engine returns shard i's engine for inspection — the replication
// tests' byte-identity oracle. Callers must not mutate it and must not
// race it against Apply.
func (s *Standby) Engine(i int) *incremental.Engine { return s.st.engines[i] }

// Snapshot computes an immutable view of the replica's state in the
// same shape a leader Group publishes. It is some prefix-consistent
// state of the leader: every count and cluster follows from a
// committed prefix of each journal. PendingPairs excludes the leader's
// cross-shard handoff queue — a standby does not maintain the probe
// index it derives from (promotion recomputes it via recovery).
func (s *Standby) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	perShard := make([]ShardStats, len(s.st.engines))
	for i, e := range s.st.engines {
		perShard[i] = statsOf(e)
	}
	return s.st.snapshot(perShard, 0)
}
