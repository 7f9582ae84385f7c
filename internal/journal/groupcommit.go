package journal

import (
	"sync"
	"time"
)

// GroupPolicy configures group commit: when a commit group closes for
// its single fsync. Under the zero value a group is exactly what one
// caller appended before saying it was done (CloseGroup): one fsync per
// request per journal.
type GroupPolicy struct {
	// Window, when positive, is how long a group stays open after its
	// first event so that concurrent callers can join its fsync; a lone
	// caller waits it out. With 0 no timer runs: a group closes when a
	// caller that has appended everything it will wait on calls
	// CloseGroup.
	Window time.Duration
	// MaxEvents closes a group early once it holds this many events;
	// 0 means DefaultMaxEvents.
	MaxEvents int
	// MaxBytes closes a group early once its events span this many WAL
	// bytes; 0 means DefaultMaxBytes.
	MaxBytes int64
}

// Default group-size caps, applied when the corresponding GroupPolicy
// field is zero.
const (
	// DefaultMaxEvents is the default per-group event cap.
	DefaultMaxEvents = 256
	// DefaultMaxBytes is the default per-group byte cap (1 MiB).
	DefaultMaxBytes = 1 << 20
)

func (p GroupPolicy) withDefaults() GroupPolicy {
	if p.MaxEvents <= 0 {
		p.MaxEvents = DefaultMaxEvents
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = DefaultMaxBytes
	}
	return p
}

// Committer serializes all access to a Store and batches appends into
// commit groups: AppendAsync calls accumulate in one group that is
// flushed with a single fsync when a caller closes it (CloseGroup,
// Expedite, Flush), the policy's window elapses or a size cap fills, and
// every caller's channel resolves only once the group holding its event
// is durable. An append that nobody closes waits for the window — or,
// at Window 0, for the next caller that does close.
//
// The fsync runs on a background flusher goroutine outside the
// committer lock, so appends of the NEXT group proceed while the
// current group syncs — this is what pipelines acknowledgments instead
// of stalling the writer behind every disk barrier.
type Committer struct {
	st  *Store
	pol GroupPolicy

	mu      sync.Mutex
	ready   *sync.Cond     // signals the flusher: group due or closing
	waiters []chan<- error // the open group, in append order
	nev     int            // appended events in the open group (Flush joiners excluded)
	bytes   int64          // WAL bytes spanned by the open group
	due     bool           // closed by a caller, the window or a size cap
	closed  bool
	timer   *time.Timer
	done    chan struct{} // flusher exit
}

// NewCommitter wraps a store in a group-commit layer and starts its
// flusher. Callers must route every append and checkpoint through the
// committer once it exists — it owns the store — and Close it.
func NewCommitter(st *Store, pol GroupPolicy) *Committer {
	c := &Committer{st: st, pol: pol.withDefaults(), done: make(chan struct{})}
	c.ready = sync.NewCond(&c.mu)
	c.timer = time.AfterFunc(time.Hour, c.Expedite)
	c.timer.Stop()
	go c.run()
	return c
}

// Policy returns the (default-filled) policy the committer runs.
func (c *Committer) Policy() GroupPolicy { return c.pol }

// AppendAsync appends one event and returns its sequence number plus a
// channel that resolves when the event is durable (or failed). The
// append itself — id assignment, WAL write, in-order sequencing — has
// happened by return time; only durability is deferred. An immediate
// error means the event was NOT appended.
func (c *Committer) AppendAsync(ev Event) (int64, <-chan error, error) {
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, ErrClosed
	}
	before := c.st.curBytes
	seq, err := c.st.AppendBuffered(ev)
	if err != nil {
		c.mu.Unlock()
		return 0, nil, err
	}
	if len(c.waiters) == 0 && c.pol.Window > 0 {
		c.timer.Reset(c.pol.Window)
	}
	c.waiters = append(c.waiters, ch)
	c.nev++
	c.bytes += c.st.curBytes - before
	if c.nev >= c.pol.MaxEvents || c.bytes >= c.pol.MaxBytes {
		c.due = true
		c.ready.Signal()
	}
	c.mu.Unlock()
	return seq, ch, nil
}

// Append appends one event and blocks until it is durable — append,
// close, wait: the one-event case of the asynchronous path. The open
// group is expedited rather than waiting out the window (a sequential
// caller gains nothing from the delay), but the fsync is still shared
// with every concurrent appender in the group.
func (c *Committer) Append(ev Event) (int64, error) {
	seq, wait, err := c.AppendAsync(ev)
	if err != nil {
		return 0, err
	}
	c.Expedite()
	if err := <-wait; err != nil {
		return 0, err
	}
	return seq, nil
}

// CloseGroup is the request boundary: the caller has appended every
// event it is about to wait on. With no window that closes the open
// group — its fsync starts now; with one, the group stays open until
// the window elapses so concurrent requests can still join it.
func (c *Committer) CloseGroup() {
	if c.pol.Window == 0 {
		c.Expedite()
	}
}

// Expedite marks the open group due immediately, so its fsync starts
// now whatever the window. Callers nobody can join — a barrier holder,
// a sequential writer — use it; it is a no-op with no open group.
func (c *Committer) Expedite() {
	c.mu.Lock()
	if len(c.waiters) > 0 {
		c.due = true
		c.ready.Signal()
	}
	c.mu.Unlock()
}

// Flush commits everything appended so far and blocks until it is
// durable — the barrier resolve, checkpoint, and shutdown use.
func (c *Committer) Flush() error {
	c.mu.Lock()
	if c.st.err != nil {
		err := c.st.err
		c.mu.Unlock()
		return err
	}
	if c.closed || (len(c.waiters) == 0 && c.st.pending == 0) {
		c.mu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	c.waiters = append(c.waiters, ch)
	c.due = true
	c.ready.Signal()
	c.mu.Unlock()
	return <-ch
}

// WriteCheckpoint installs a compacted snapshot through the committer
// lock, so compaction never races the flusher's sync or rotation. The
// checkpoint may cover buffered events — the snapshot itself is their
// durable copy, and their acks still wait for the group sync.
func (c *Committer) WriteCheckpoint(cp *Checkpoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.WriteCheckpoint(cp)
}

// Close flushes outstanding events, stops the flusher, and closes the
// underlying store.
func (c *Committer) Close() error {
	ferr := c.Flush()
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.timer.Stop()
		c.ready.Signal()
	}
	c.mu.Unlock()
	<-c.done
	cerr := c.st.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// run is the flusher: it waits for a due group, takes it, syncs the
// live segment OUTSIDE the lock (appends into the next group proceed
// meanwhile), rotates at the commit boundary if the segment is full,
// and resolves the group's waiters in append order.
func (c *Committer) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for !c.closed && !(c.due && len(c.waiters) > 0) {
			c.ready.Wait()
		}
		if len(c.waiters) == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		group := c.waiters
		nev := c.nev
		c.waiters = nil
		c.nev = 0
		c.bytes = 0
		c.due = false
		err := c.st.err
		f := c.st.cur
		if f == nil && err == nil {
			err = ErrClosed
		}
		c.mu.Unlock()

		if err == nil {
			// Concurrent writes to the live segment are safe against
			// Sync for both os.File and MemFS; events appended after
			// this group was captured may ride along early, which only
			// makes them durable sooner than promised.
			err = f.Sync()
		}

		c.mu.Lock()
		if err != nil {
			if c.st.err == nil {
				c.st.err = err
			}
		} else {
			if nev <= c.st.pending {
				c.st.pending -= nev
			} else {
				c.st.pending = 0
			}
			// Everything appended before the sync is durable; events that
			// arrived after the group was captured may or may not have
			// ridden along, so the watermark conservatively excludes the
			// still-pending suffix.
			c.st.durable.Store(c.st.nextSeq - 1 - int64(c.st.pending))
			if c.st.opt.RotateBytes > 0 && c.st.curBytes >= c.st.opt.RotateBytes {
				// rotate syncs the outgoing segment's tail before
				// closing it, so events of the NEXT group that landed
				// there during the out-of-lock fsync above survive a
				// power loss (Close alone is no durability barrier);
				// they are still acked only by their own group's sync.
				if rerr := c.st.rotate(); rerr != nil {
					// The group's events ARE durable (the sync above
					// succeeded), so its waiters are still acked; the
					// store is poisoned for future appends.
					c.st.err = rerr
				}
			}
			c.st.opt.Obs.Count(MetricGroupCommits, 1)
			c.st.opt.Obs.Count(MetricGroupedEvents, int64(nev))
		}
		c.mu.Unlock()
		for _, w := range group {
			w <- err
		}
	}
}
