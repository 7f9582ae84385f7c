package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"acd/internal/journal"
	"acd/internal/shard"
)

// Config configures a Follower.
type Config struct {
	// Shard is the replicated group's configuration; its shard count
	// must match the leader's (0 adopts the leader's).
	Shard shard.Config
	// Tree is the follower's own journal tree: shipped events are
	// persisted here verbatim, so a promotion recovers from it exactly
	// as the leader would from its own disk.
	Tree journal.Tree
	// Source is the leader link.
	Source Source
	// MaxBatch caps events per fetch; 0 means DefaultMaxBatch.
	MaxBatch int
	// Interval is Run's idle poll interval when a round advances
	// nothing; 0 means DefaultInterval. Sources that block server-side
	// (long-poll) make this a rare fallback.
	Interval time.Duration
	// Wait is the server-side long-poll wait requested while a pull
	// round has not yet advanced (WaitSource sources only; 0 disables
	// long-polling). Once any journal ships events the rest of the
	// round fetches without waiting, so an empty journal never gates a
	// busy one's replay throughput.
	Wait time.Duration
}

// Defaults for Config's zero fields.
const (
	// DefaultMaxBatch is the default per-fetch event cap.
	DefaultMaxBatch = 512
	// DefaultInterval is Run's default idle poll interval.
	DefaultInterval = 25 * time.Millisecond
)

// Follower replicates a leader into its own journal tree and a warm
// standby. It is safe for concurrent use: Step (or Run) advances
// replication while Standby-backed reads and Status run from other
// goroutines.
type Follower struct {
	cfg   Config
	names []string // canonical journal order: shards..., router

	mu       sync.Mutex
	stores   map[string]*journal.Store
	fs       map[string]journal.FS
	standby  *shard.Standby
	epoch    int64
	leaderWM map[string]int64 // leader durable watermark per journal, from the latest batch
	closed   bool
}

// NewFollower opens (or resumes) a follower over its own journal tree:
// it discovers the leader's layout, mirrors it locally, recovers
// whatever was already shipped, and seeds the warm standby from it.
func NewFollower(ctx context.Context, cfg Config) (*Follower, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("replica: Config.Source is required")
	}
	if cfg.Tree == nil {
		return nil, fmt.Errorf("replica: Config.Tree is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	info, err := cfg.Source.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("replica: discovering leader layout: %w", err)
	}
	if cfg.Shard.Shards != 0 && cfg.Shard.Shards != info.Shards {
		return nil, fmt.Errorf("replica: leader runs %d shards, follower configured for %d", info.Shards, cfg.Shard.Shards)
	}
	cfg.Shard.Shards = info.Shards
	layout, err := journal.OpenLayout(cfg.Tree, info.Shards)
	if err != nil {
		return nil, err
	}
	if layout.Legacy {
		return nil, fmt.Errorf("replica: legacy journal layouts cannot follow (migrate first)")
	}
	f := &Follower{
		cfg:      cfg,
		stores:   make(map[string]*journal.Store),
		fs:       make(map[string]journal.FS),
		leaderWM: make(map[string]int64),
		epoch:    layout.Epoch,
	}
	for i := 0; i < info.Shards; i++ {
		f.names = append(f.names, journal.ShardDirName(i))
		f.fs[journal.ShardDirName(i)] = layout.ShardFS[i]
	}
	f.names = append(f.names, journal.RouterDir)
	f.fs[journal.RouterDir] = layout.RouterFS

	// A leader at an epoch below one we durably recorded is deposed:
	// following it would fold a forked history.
	if info.Epoch < f.epoch {
		return nil, fmt.Errorf("%w: leader at %d, follower has seen %d", ErrStaleEpoch, info.Epoch, f.epoch)
	}
	if info.Epoch > f.epoch {
		if _, err := journal.SetEpoch(cfg.Tree.Root(), info.Epoch); err != nil {
			return nil, err
		}
		f.epoch = info.Epoch
	}

	for _, name := range f.names {
		st, _, err := journal.OpenOptions(f.fs[name], journal.Options{
			RotateBytes: cfg.Shard.Engine.RotateBytes,
			Obs:         cfg.Shard.Engine.Obs,
		})
		if err != nil {
			f.closeStoresLocked()
			return nil, fmt.Errorf("replica: opening %s: %w", name, err)
		}
		f.stores[name] = st
	}
	if err := f.reseedLocked(); err != nil {
		f.closeStoresLocked()
		return nil, err
	}
	return f, nil
}

// reseedLocked rebuilds the warm standby from the follower's own
// journals — at open, and whenever a shipped checkpoint replaces a
// journal's history wholesale.
func (f *Follower) reseedLocked() error {
	sb, err := shard.NewStandby(f.cfg.Shard)
	if err != nil {
		return err
	}
	for _, name := range f.names {
		// The follower is the only writer and every batch is committed
		// before this runs, so an unbounded tail is exactly the
		// journal's content.
		tb, err := journal.ReadTail(f.fs[name], 1, 0, 0)
		if err != nil {
			return fmt.Errorf("replica: reseeding from %s: %w", name, err)
		}
		if tb.Checkpoint != nil {
			if err := sb.ApplyCheckpoint(name, tb.Checkpoint); err != nil {
				return err
			}
		}
		for _, ev := range tb.Events {
			if err := sb.Apply(name, ev); err != nil {
				return err
			}
		}
	}
	f.standby = sb
	return nil
}

// Standby returns the warm replica the follower folds events into —
// the stale-ok read surface.
func (f *Follower) Standby() *shard.Standby {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.standby
}

// Shards returns the replicated group's shard count (adopted from the
// leader when the config left it 0).
func (f *Follower) Shards() int { return f.cfg.Shard.Shards }

// Epoch returns the highest leader epoch the follower has durably
// recorded.
func (f *Follower) Epoch() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Step runs one pull round over every journal, applying whatever the
// leader has committed past the follower's cursors. It returns whether
// any journal advanced. Fetch failures are transient (the link or the
// leader hiccuped — retry); apply failures are fatal (the local
// journal or fold refused the batch) and are wrapped so Run can tell
// the difference.
func (f *Follower) Step(ctx context.Context) (bool, error) {
	advanced := false
	for _, name := range f.names {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return advanced, fatal(fmt.Errorf("replica: follower closed"))
		}
		from := f.stores[name].NextSeq()
		f.mu.Unlock()
		b, err := f.fetch(ctx, name, from, advanced)
		if err != nil {
			return advanced, err
		}
		n, err := f.apply(name, b)
		if err != nil {
			return advanced, err
		}
		if n > 0 {
			advanced = true
		}
	}
	return advanced, nil
}

// fetch pulls one batch, long-polling (Config.Wait) only while the
// round has advanced nothing — a journal with events returns
// immediately either way, so the wait only ever spends idle time.
func (f *Follower) fetch(ctx context.Context, name string, from int64, advanced bool) (Batch, error) {
	if ws, ok := f.cfg.Source.(WaitSource); ok {
		wait := f.cfg.Wait
		if advanced {
			wait = 0
		}
		return ws.FetchWait(ctx, name, from, f.cfg.MaxBatch, wait)
	}
	return f.cfg.Source.Fetch(ctx, name, from, f.cfg.MaxBatch)
}

// apply persists one batch into the follower's journal (commit before
// ack — the standby only ever folds durable events) and then folds it.
// It returns how many events advanced the journal.
func (f *Follower) apply(name string, b Batch) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fatal(fmt.Errorf("replica: follower closed"))
	}
	if b.Epoch < f.epoch {
		return 0, fatal(fmt.Errorf("%w: batch at %d, follower has seen %d", ErrStaleEpoch, b.Epoch, f.epoch))
	}
	if b.Epoch > f.epoch {
		if _, err := journal.SetEpoch(f.cfg.Tree.Root(), b.Epoch); err != nil {
			return 0, fatal(err)
		}
		f.epoch = b.Epoch
	}
	if b.Durable > f.leaderWM[name] {
		f.leaderWM[name] = b.Durable
	}
	st, ok := f.stores[name]
	if !ok {
		return 0, fatal(fmt.Errorf("replica: batch for unknown journal %q", name))
	}
	installed, fresh, err := persist(st, b.Checkpoint, b.Events)
	if err != nil {
		return 0, fatal(err)
	}
	if installed {
		// The checkpoint replaced this journal's history wholesale:
		// rebuild the standby from what is now on disk, the batch's
		// fresh events included.
		if err := f.reseedLocked(); err != nil {
			return 0, fatal(err)
		}
		return len(fresh) + 1, nil
	}
	for _, ev := range fresh {
		if err := f.standby.Apply(name, ev); err != nil {
			return 0, fatal(err)
		}
	}
	return len(fresh), nil
}

// persist makes one shipped batch durable in st: the checkpoint is
// installed when it is at or past the journal's cursor, then the events
// that extend the journal are appended and committed. Duplicated events
// are skipped and a gap stops the batch (the rest is re-fetched), which
// keeps replication idempotent under chaotic links. It reports whether
// the checkpoint was installed and which events were new.
func persist(st *journal.Store, cp *journal.Checkpoint, events []journal.Event) (installed bool, fresh []journal.Event, err error) {
	if cp != nil && cp.Seq >= st.NextSeq() {
		if err := st.InstallCheckpoint(cp); err != nil {
			return false, nil, err
		}
		installed = true
	}
	for _, ev := range events {
		if ev.Seq < st.NextSeq() {
			continue // duplicate: already persisted
		}
		if ev.Seq > st.NextSeq() {
			break // gap (reordered or truncated batch): re-fetch later
		}
		if err := st.AppendShipped(ev); err != nil {
			return installed, nil, err
		}
		fresh = append(fresh, ev)
	}
	if len(fresh) > 0 {
		if err := st.Commit(); err != nil {
			return installed, nil, err
		}
	}
	return installed, fresh, nil
}

// Run pulls until the context ends or a fatal error stops replication.
// Transient fetch failures back off and retry; an idle round sleeps
// Config.Interval.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.cfg.Interval
	for {
		advanced, err := f.Step(ctx)
		if ctx.Err() != nil {
			return nil
		}
		switch {
		case err == nil:
			backoff = f.cfg.Interval
			if !advanced {
				if !sleepCtx(ctx, f.cfg.Interval) {
					return nil
				}
			}
		case isFatal(err):
			return err
		default:
			if !sleepCtx(ctx, backoff) {
				return nil
			}
			if backoff < time.Second {
				backoff *= 2
			}
		}
	}
}

// sleepCtx sleeps d or until ctx ends; false means the context ended.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// JournalStatus is one journal's replication position.
type JournalStatus struct {
	// Applied is the follower's last persisted-and-folded sequence.
	Applied int64 `json:"applied"`
	// LeaderDurable is the leader's durable watermark from the latest
	// batch (0 before the first fetch).
	LeaderDurable int64 `json:"leader_durable"`
}

// Status is a follower's replication position across all journals.
type Status struct {
	// Epoch is the highest leader epoch durably recorded.
	Epoch int64 `json:"epoch"`
	// Lag sums max(0, LeaderDurable-Applied) over the journals: the
	// number of committed leader events not yet folded here.
	Lag int64 `json:"lag"`
	// Journals maps journal name to its position.
	Journals map[string]JournalStatus `json:"journals"`
}

// Status reports the follower's current replication position.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{Epoch: f.epoch, Journals: make(map[string]JournalStatus, len(f.names))}
	for _, name := range f.names {
		js := JournalStatus{LeaderDurable: f.leaderWM[name]}
		if s := f.stores[name]; s != nil {
			js.Applied = s.NextSeq() - 1
		}
		if d := js.LeaderDurable - js.Applied; d > 0 {
			st.Lag += d
		}
		st.Journals[name] = js
	}
	return st
}

// Lag returns the total replication lag in events (see Status.Lag).
func (f *Follower) Lag() int64 { return f.Status().Lag }

// Promote turns the follower into the leader. When old is non-nil —
// the deposed leader's journal tree, reachable on shared or recovered
// storage — promotion first fsync-fences the old epoch (so a revenant
// process reopening that tree stands down) and replays whatever tail
// the old disk still holds past the follower's cursors. The follower's
// own tree is then stamped with the new epoch and re-opened through
// the full recovery fold as a read-write group. The committed-prefix
// contract holds throughout: every event durable on the old tree is
// replayed, and nothing else is invented. The follower is closed
// either way; on success the returned group owns the journals.
func (f *Follower) Promote(old journal.Tree) (*shard.Group, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("replica: follower closed")
	}
	newEpoch := f.epoch + 1
	if old != nil {
		fenced, err := journal.FenceEpoch(old.Root(), f.epoch+1)
		if err != nil {
			return nil, fmt.Errorf("replica: fencing old leader: %w", err)
		}
		newEpoch = fenced
		if err := f.replayOldLocked(old); err != nil {
			return nil, err
		}
	}
	if _, err := journal.SetEpoch(f.cfg.Tree.Root(), newEpoch); err != nil {
		return nil, err
	}
	f.closeStoresLocked()
	f.closed = true
	g, err := shard.Open(f.cfg.Shard, f.cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("replica: recovering promoted group: %w", err)
	}
	return g, nil
}

// replayOldLocked drains the old leader tree's journals into the
// follower's, from each follower cursor to whatever survives on the
// old disk. Unbounded reads are safe: the old leader is fenced and
// dead, so its files are frozen.
func (f *Follower) replayOldLocked(old journal.Tree) error {
	layout, err := journal.OpenLayout(old, f.cfg.Shard.Shards)
	if err != nil {
		return fmt.Errorf("replica: opening old leader tree: %w", err)
	}
	if layout.Legacy {
		return fmt.Errorf("replica: old leader tree is a legacy layout")
	}
	oldFS := make(map[string]journal.FS, len(f.names))
	for i := 0; i < f.cfg.Shard.Shards; i++ {
		oldFS[journal.ShardDirName(i)] = layout.ShardFS[i]
	}
	oldFS[journal.RouterDir] = layout.RouterFS
	for _, name := range f.names {
		st := f.stores[name]
		for {
			tb, err := journal.ReadTail(oldFS[name], st.NextSeq(), 0, 4096)
			if err != nil {
				return fmt.Errorf("replica: replaying %s tail: %w", name, err)
			}
			installed, fresh, err := persist(st, tb.Checkpoint, tb.Events)
			if err != nil {
				return err
			}
			if !installed && len(fresh) == 0 {
				break
			}
		}
	}
	return nil
}

// Close stops the follower and closes its journals. Safe to call after
// Promote (a no-op: the promoted group owns the journals).
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.closeStoresLocked()
	return nil
}

// closeStoresLocked closes every open journal store.
func (f *Follower) closeStoresLocked() {
	for name, st := range f.stores {
		if st != nil {
			st.Close()
			f.stores[name] = nil
		}
	}
}

// fatalErr wraps errors that must stop replication (local journal
// poisoned, fold refused, epoch fork) as opposed to transient link
// failures Run retries.
type fatalErr struct{ err error }

func (e fatalErr) Error() string { return e.err.Error() }
func (e fatalErr) Unwrap() error { return e.err }

func fatal(err error) error { return fatalErr{err: err} }

// isFatal reports whether err (anywhere in its chain) is fatal.
func isFatal(err error) bool {
	var fe fatalErr
	return errors.As(err, &fe)
}
