package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"acd/internal/obs"
)

// ackWithin reports an append's acknowledgment, or fails the test when
// none arrives: a waiter nobody closed must show up as a failure, never
// as a hung test.
func ackWithin(t *testing.T, wait <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-wait:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: never acknowledged", what)
		return nil
	}
}

// TestCommitterPassthrough: with no window (the zero policy) a group is
// what its caller appended before closing it. Nothing is durable or
// acknowledged before the close, everything is after it, and the whole
// group cost one fsync — through the same API a window uses.
func TestCommitterPassthrough(t *testing.T) {
	fs := NewMemFS()
	s, _, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{})
	var waits []<-chan error
	for i := 0; i < 3; i++ {
		seq, wait, err := c.AppendAsync(recordEv(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i)+1 {
			t.Errorf("seq = %d", seq)
		}
		waits = append(waits, wait)
	}
	// No timer runs at Window 0: however long the caller dawdles, the
	// open group is neither acknowledged nor on disk.
	time.Sleep(20 * time.Millisecond)
	for i, wait := range waits {
		select {
		case err := <-wait:
			t.Fatalf("append %d acknowledged (%v) before its group was closed", i, err)
		default:
		}
	}
	if _, rec, err := Open(fs.CrashCopy()); err != nil || len(rec.Events) != 0 {
		t.Fatalf("crash before the close recovered %d events (%v), want 0", len(rec.Events), err)
	}
	if got := s.DurableSeq(); got != 0 {
		t.Errorf("DurableSeq = %d before the close", got)
	}

	before := fs.Syncs()
	c.CloseGroup()
	for i, wait := range waits {
		if err := ackWithin(t, wait, fmt.Sprintf("append %d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := fs.Syncs() - before; got != 1 {
		t.Errorf("closing a 3-event group cost %d fsyncs, want 1", got)
	}
	if seq, err := c.Append(recordEv(3)); err != nil || seq != 4 {
		t.Fatalf("Append = (%d, %v)", seq, err)
	}
	// Every acknowledged event survives a crash right now.
	_, rec, err := Open(fs.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 4 {
		t.Errorf("crash copy recovered %d events, want 4", len(rec.Events))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AppendAsync(recordEv(4)); err == nil {
		t.Error("append after close accepted")
	}
}

// TestCloseGroupRespectsWindow: with a window, closing a request leaves
// the group open for concurrent requests to join — the window's timer,
// a size cap or Expedite closes it, as before.
func TestCloseGroupRespectsWindow(t *testing.T) {
	s, _, err := Open(NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: time.Hour})
	defer c.Close()
	_, wait, err := c.AppendAsync(recordEv(0))
	if err != nil {
		t.Fatal(err)
	}
	c.CloseGroup()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-wait:
		t.Fatalf("CloseGroup cut a one-hour window short (ack %v)", err)
	default:
	}
	c.Expedite()
	if err := ackWithin(t, wait, "expedited append"); err != nil {
		t.Fatal(err)
	}
}

// TestSizeCapClosesGroup: the size caps close a group on their own at
// every window, so a request larger than a cap starts committing before
// its caller is done appending instead of growing one unbounded group.
func TestSizeCapClosesGroup(t *testing.T) {
	rec := obs.New()
	s, _, err := OpenOptions(NewMemFS(), Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{MaxEvents: 4})
	appendN := func(from, n int) []<-chan error {
		var waits []<-chan error
		for i := from; i < from+n; i++ {
			_, wait, err := c.AppendAsync(recordEv(i))
			if err != nil {
				t.Fatal(err)
			}
			waits = append(waits, wait)
		}
		return waits
	}
	for i, wait := range appendN(0, 4) { // fills the cap: nobody closes it
		if err := ackWithin(t, wait, fmt.Sprintf("capped append %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tail := appendN(4, 2)
	c.CloseGroup()
	for i, wait := range tail {
		if err := ackWithin(t, wait, fmt.Sprintf("tail append %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter(MetricGroupCommits); got != 2 {
		t.Errorf("6 events under a 4-event cap made %d groups, want 2", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSyncFailsWholeGroup: a failed fsync fails every
// acknowledgment of its group, makes none of it durable, and poisons the
// journal for whatever comes after.
func TestFailedSyncFailsWholeGroup(t *testing.T) {
	for _, window := range []time.Duration{0, time.Hour} {
		fs := NewMemFS()
		s, _, err := Open(fs)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCommitter(s, GroupPolicy{Window: window})
		if _, err := c.Append(recordEv(0)); err != nil {
			t.Fatal(err)
		}
		var waits []<-chan error
		for i := 1; i < 4; i++ {
			_, wait, err := c.AppendAsync(recordEv(i))
			if err != nil {
				t.Fatal(err)
			}
			waits = append(waits, wait)
		}
		fs.FailAfterSyncs(0)
		c.Expedite()
		for i, wait := range waits {
			if err := ackWithin(t, wait, fmt.Sprintf("append %d", i+1)); err == nil {
				t.Errorf("window %v: append %d acknowledged by a failed fsync", window, i+1)
			}
		}
		if _, _, err := c.AppendAsync(recordEv(4)); err == nil {
			t.Errorf("window %v: append after a failed commit accepted", window)
		}
		if err := c.Flush(); err == nil {
			t.Errorf("window %v: Flush after a failed commit reported success", window)
		}
		if got := s.DurableSeq(); got != 1 {
			t.Errorf("window %v: DurableSeq = %d, want 1", window, got)
		}
		if _, rec, err := Open(fs.CrashCopy()); err != nil || len(rec.Events) != 1 {
			t.Errorf("window %v: crash recovered %d events (%v), want the 1 acknowledged", window, len(rec.Events), err)
		}
		c.Close()
	}
}

// TestGroupCommitConcurrent: concurrent appends share fsyncs (measurably
// fewer group commits than events), every ack arrives, and recovery
// yields all events in sequence order.
func TestGroupCommitConcurrent(t *testing.T) {
	fs := NewMemFS()
	rec := obs.New()
	s, _, err := OpenOptions(fs, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: 50 * time.Millisecond, MaxEvents: 8})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, wait, err := c.AppendAsync(recordEv(i))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = <-wait
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	commits := rec.Counter(MetricGroupCommits)
	events := rec.Counter(MetricGroupedEvents)
	if events != n {
		t.Errorf("grouped events = %d, want %d", events, n)
	}
	if commits == 0 || commits >= n {
		t.Errorf("group commits = %d for %d events — no batching happened", commits, n)
	}
	_, got, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != n {
		t.Fatalf("recovered %d events, want %d", len(got.Events), n)
	}
	for i, ev := range got.Events {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestTornGroupTail: a crash before the group's fsync loses exactly the
// buffered (unacked) suffix — the committed prefix recovers intact and
// the journal stays writable after recovery.
func TestTornGroupTail(t *testing.T) {
	fs := NewMemFS()
	s, _, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AppendBuffered(recordEv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if _, err := s.AppendBuffered(recordEv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// The live file sees all five; the crash copy only the synced group.
	if b, _ := fs.ReadFile(s.curName); bytes.Count(b, []byte("\n")) != 5 {
		t.Fatalf("live segment holds %d lines", bytes.Count(b, []byte("\n")))
	}
	s2, rec, err := Open(fs.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 3 || s2.NextSeq() != 4 {
		t.Fatalf("recovered %d events, next seq %d; want 3, 4", len(rec.Events), s2.NextSeq())
	}
	if _, err := s2.Append(recordEv(3)); err != nil {
		t.Fatalf("append after torn-group recovery: %v", err)
	}
	s2.Close()
}

// TestGroupDurableBeforeAck: a crash between the group fsync and the
// acks still recovers the whole group — recovered state may exceed the
// acked floor, never undershoot it.
func TestGroupDurableBeforeAck(t *testing.T) {
	fs := NewMemFS()
	s, _, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.AppendBuffered(recordEv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil { // the group fsync; no ack ever delivered
		t.Fatal(err)
	}
	_, rec, err := Open(fs.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 4 {
		t.Fatalf("recovered %d events, want the whole synced group (4)", len(rec.Events))
	}
}

// TestRotationSweep is the every-byte crash sweep extended across
// segment rotation: groups of three events commit with RotateBytes low
// enough to rotate repeatedly, then EVERY reachable disk state — all
// earlier segments complete, any byte prefix of the segment the writer
// was in, later segments absent — must recover exactly the durable
// prefix.
func TestRotationSweep(t *testing.T) {
	fs := NewMemFS()
	s, _, err := OpenOptions(fs, Options{RotateBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := s.AppendBuffered(recordEv(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%3 == 0 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	names, _ := fs.List()
	var segs []string
	for _, nm := range names {
		if _, ok := parseName(nm, segPrefix, segSuffix); ok {
			segs = append(segs, nm)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments; rotation did not happen (%v)", len(segs), segs)
	}

	prefixEvents := 0 // complete events in segments before the torn one
	for si, seg := range segs {
		full := fs.Bytes(seg)
		for cut := 0; cut <= len(full); cut++ {
			crash := NewMemFS()
			for _, prev := range segs[:si] {
				crash.Put(prev, fs.Bytes(prev))
			}
			crash.Put(seg, full[:cut])
			s2, rec, err := Open(crash)
			if err != nil {
				t.Fatalf("segment %s cut %d: recovery failed: %v", seg, cut, err)
			}
			s2.Close()
			wantN := prefixEvents + bytes.Count(full[:cut], []byte("\n"))
			if tail := full[bytes.LastIndexByte(full[:cut], '\n')+1 : cut]; len(tail) > 0 && json.Valid(tail) {
				wantN++
			}
			if len(rec.Events) != wantN {
				t.Fatalf("segment %s cut %d: recovered %d events, want %d", seg, cut, len(rec.Events), wantN)
			}
			for i, ev := range rec.Events {
				if ev.Seq != int64(i)+1 || ev.Record.ID != i {
					t.Fatalf("segment %s cut %d: event %d = %+v", seg, cut, i, ev)
				}
			}
		}
		prefixEvents += bytes.Count(full, []byte("\n"))
	}
	if prefixEvents != n {
		t.Fatalf("segments hold %d events total, want %d", prefixEvents, n)
	}
}

// TestRotationNeverTearsMidGroup: a segment boundary always falls on a
// commit boundary — no segment ends inside a commit group.
func TestRotationNeverTearsMidGroup(t *testing.T) {
	fs := NewMemFS()
	s, _, err := OpenOptions(fs, Options{RotateBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := s.AppendBuffered(recordEv(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%3 == 0 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	names, _ := fs.List()
	for _, nm := range names {
		if _, ok := parseName(nm, segPrefix, segSuffix); !ok {
			continue
		}
		lines := bytes.Count(fs.Bytes(nm), []byte("\n"))
		if lines%3 != 0 {
			t.Errorf("segment %s holds %d events — boundary inside a 3-event group", nm, lines)
		}
	}
}

// TestRotationRecoveryAndCompaction: rotated segments replay in order
// across a restart, and a checkpoint compacts every rotated segment it
// covers while the live one survives.
func TestRotationRecoveryAndCompaction(t *testing.T) {
	fs := NewMemFS()
	rec := obs.New()
	s, _, err := OpenOptions(fs, Options{RotateBytes: 1, Obs: rec}) // rotate after every commit
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, recordEv(0), recordEv(1), recordEv(2))
	if got := rec.Counter(MetricSegmentsRotated); got != 3 {
		t.Errorf("segments rotated = %d, want 3", got)
	}
	s.Close()

	s2, got, err := OpenOptions(fs, Options{RotateBytes: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 3 {
		t.Fatalf("recovered %d events across rotated segments, want 3", len(got.Events))
	}
	if err := s2.WriteCheckpoint(&Checkpoint{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	var segs []string
	for _, nm := range names {
		if _, ok := parseName(nm, segPrefix, segSuffix); ok {
			segs = append(segs, nm)
		}
	}
	if len(segs) != 1 || segs[0] != s2.curName {
		t.Errorf("segments after checkpoint: %v (live %s)", segs, s2.curName)
	}
	s2.Close()
}

// TestMidRotationCrash: a crash after the old segment closed but before
// anything landed in the new one recovers the full committed history.
func TestMidRotationCrash(t *testing.T) {
	fs := NewMemFS()
	s, _, err := OpenOptions(fs, Options{RotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, recordEv(0), recordEv(1)) // second append rotates; new segment empty
	crash, recd, err := Open(fs.CrashCopy())
	if err != nil {
		t.Fatalf("mid-rotation recovery: %v", err)
	}
	defer crash.Close()
	if len(recd.Events) != 2 || crash.NextSeq() != 3 {
		t.Fatalf("recovered %d events, next seq %d", len(recd.Events), crash.NextSeq())
	}
	s.Close()
}

// TestCommitterSticky: a write failure poisons the store through the
// committer — later appends and flushes fail instead of risking an ack
// for an event whose durability is unknown.
func TestCommitterSticky(t *testing.T) {
	fs := NewMemFS()
	s, _, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: time.Millisecond})
	fs.FailAfterWrites(0)
	if _, _, err := c.AppendAsync(recordEv(0)); err == nil {
		t.Fatal("failed write accepted")
	}
	if _, _, err := c.AppendAsync(recordEv(1)); err == nil {
		t.Error("append after poison accepted")
	}
	if err := c.Flush(); err == nil {
		t.Error("Flush after poison reported success")
	}
	if err := c.WriteCheckpoint(&Checkpoint{Seq: 0}); err == nil {
		t.Error("checkpoint after poison accepted")
	}
	c.Close()
}

// TestCommitterWindowAck: an async append with no concurrent traffic is
// acked once the window elapses — it does not wait for a size cap that
// never fills.
func TestCommitterWindowAck(t *testing.T) {
	fs := NewMemFS()
	s, _, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: 5 * time.Millisecond})
	defer c.Close()
	_, wait, err := c.AppendAsync(recordEv(0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wait:
		if err != nil {
			t.Fatalf("window ack: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never acked after the window elapsed")
	}
}

// TestCommitterCheckpointCoversBuffered: a checkpoint through the
// committer may cover events whose group has not synced yet — the
// snapshot is their durable copy, and recovery from a crash right after
// the checkpoint still yields them.
func TestCommitterCheckpointCoversBuffered(t *testing.T) {
	fs := NewMemFS()
	s, _, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: time.Hour}) // group never due on its own
	_, wait, err := c.AppendAsync(recordEv(0))
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Seq: 1, Records: []RecordData{{ID: 0, Fields: map[string]string{"name": "record 0"}}}}
	if err := c.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	_, recd, err := Open(fs.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if recd.Checkpoint == nil || recd.Checkpoint.Seq != 1 || len(recd.Checkpoint.Records) != 1 {
		t.Fatalf("checkpoint did not carry the buffered event: %+v", recd.Checkpoint)
	}
	if err := c.Close(); err != nil { // flushes the still-buffered group
		t.Fatal(err)
	}
	if err := <-wait; err != nil {
		t.Fatalf("buffered event never acked: %v", err)
	}
}

// TestRotationSyncsPipelinedTail reproduces the committer's pipelined
// interleaving at the store level: a group fsync runs outside the
// committer lock, an append of the NEXT group lands in the old segment
// meanwhile, and the segment rotates at the following commit boundary.
// The rotated-away segment's tail must survive a crash even though its
// own group has not synced — Close is not a durability barrier, so
// rotate has to sync the outgoing segment first. Without that, the
// tail event's ack would later ride the NEW segment's sync while its
// bytes die with the old one: an acked event lost, plus a sequence gap
// recovery refuses.
func TestRotationSyncsPipelinedTail(t *testing.T) {
	fs := NewMemFS()
	s, _, err := OpenOptions(fs, Options{RotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBuffered(recordEv(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil { // the group fsync, as the flusher runs it out of lock
		t.Fatal(err)
	}
	if _, err := s.AppendBuffered(recordEv(1)); err != nil { // next group, same segment
		t.Fatal(err)
	}
	if err := s.rotate(); err != nil { // flusher re-locks: segment over RotateBytes
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after rotation synced the tail, want 0", s.Pending())
	}
	_, rec, err := Open(fs.CrashCopy())
	if err != nil {
		t.Fatalf("crash right after rotation: %v", err)
	}
	if len(rec.Events) != 2 {
		t.Fatalf("recovered %d events, want 2 — rotated segment tail lost", len(rec.Events))
	}
	s.Close()
}

// TestGroupCommitRotationDurability: under the batched committer with
// rotation on, acked ⟹ durable must hold at every moment — including
// for groups that straddle a rotation. After all acks arrive, a power
// loss (CrashCopy, before any Close) must recover every event.
func TestGroupCommitRotationDurability(t *testing.T) {
	fs := NewMemFS()
	s, _, err := OpenOptions(fs, Options{RotateBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: 100 * time.Microsecond, MaxEvents: 4})
	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, wait, err := c.AppendAsync(recordEv(i))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = <-wait
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	_, rec, err := Open(fs.CrashCopy()) // crash NOW: no Close-side sync to hide behind
	if err != nil {
		t.Fatalf("crash recovery with all events acked: %v", err)
	}
	if len(rec.Events) != n {
		t.Fatalf("recovered %d events, want all %d acked ones", len(rec.Events), n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyDirFS injects SyncDir failures: the n-th SyncDir call after
// arming fails.
type flakyDirFS struct {
	*MemFS
	failAt int
}

func (f *flakyDirFS) SyncDir() error {
	if f.failAt > 0 {
		f.failAt--
		if f.failAt == 0 {
			return fmt.Errorf("injected syncdir failure")
		}
	}
	return f.MemFS.SyncDir()
}

// TestSyncDirErrorCounted: a failed directory barrier during compaction
// is surfaced as the journal/syncdir_errors counter instead of
// vanishing — and the checkpoint itself still succeeds (removals are
// retried on the next one).
func TestSyncDirErrorCounted(t *testing.T) {
	fs := &flakyDirFS{MemFS: NewMemFS()}
	rec := obs.New()
	s, _, err := OpenOptions(fs, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, recordEv(0), recordEv(1))
	s.Close()
	s, _, err = OpenOptions(fs, Options{Obs: rec}) // old segment now compactable
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// WriteCheckpoint's SyncDir sequence from here: #1 installs the
	// checkpoint rename (must succeed), #2 is compaction's best-effort
	// barrier — fail that one.
	fs.failAt = 2
	if err := s.WriteCheckpoint(&Checkpoint{Seq: 2}); err != nil {
		t.Fatalf("checkpoint failed on a compaction-side syncdir error: %v", err)
	}
	if got := rec.Counter(MetricSyncDirErrors); got != 1 {
		t.Errorf("syncdir_errors = %d, want 1", got)
	}
}

// TestGroupCommitDirFS drives the batched committer against a real
// directory: concurrent appends, close, reopen, verify.
func TestGroupCommitDirFS(t *testing.T) {
	dir := t.TempDir() + "/journal"
	dfs, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := OpenOptions(dfs, Options{RotateBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: time.Millisecond, MaxEvents: 4})
	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, wait, err := c.AppendAsync(recordEv(i))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = <-wait
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	dfs2, _ := NewDirFS(dir)
	names, _ := dfs2.List()
	segCount := 0
	for _, nm := range names {
		if strings.HasPrefix(nm, segPrefix) {
			segCount++
		}
	}
	if segCount < 2 {
		t.Errorf("expected rotation on disk, found %d segments", segCount)
	}
	s2, recd, err := Open(dfs2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recd.Events) != n {
		t.Fatalf("recovered %d events, want %d", len(recd.Events), n)
	}
}

// gatedFS wraps MemFS so file fsyncs can be held at a gate and
// counted: the ack-ordering test below freezes the flusher mid-sync
// and proves nothing is acknowledged until the group's one fsync
// completes.
type gatedFS struct {
	*MemFS
	mu    sync.Mutex
	gate  chan struct{} // non-nil: Sync blocks until this closes
	syncs int           // segment fsyncs issued
}

func (g *gatedFS) Create(name string) (File, error) {
	f, err := g.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

// hold installs a gate future Syncs block on; the returned func opens it.
func (g *gatedFS) hold() func() {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	g.gate = ch
	return func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(ch)
	}
}

func (g *gatedFS) syncCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncs
}

type gatedFile struct {
	File
	fs *gatedFS
}

func (f *gatedFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return f.File.Sync()
}

// TestExpediteSharedSync: concurrent batched appends expedited into one
// group share exactly one fsync, and no appender is acknowledged
// before that fsync completes. The window is effectively infinite, so
// Expedite is the only thing that can start the flush; the fsync is
// held at a gate while the test confirms every ack is still pending.
func TestExpediteSharedSync(t *testing.T) {
	gfs := &gatedFS{MemFS: NewMemFS()}
	s, _, err := Open(gfs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s, GroupPolicy{Window: time.Hour, MaxEvents: 1 << 20})

	const n = 32
	acks := make(chan int, n)
	var appended, done sync.WaitGroup
	appended.Add(n)
	done.Add(n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			_, wait, err := c.AppendAsync(recordEv(i))
			appended.Done()
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = <-wait
			acks <- i
		}(i)
	}
	appended.Wait()
	base := gfs.syncCount()

	// Freeze the fsync path, then expedite: the flusher must take the
	// whole group and start its single sync...
	release := gfs.hold()
	c.Expedite()
	deadline := time.Now().Add(2 * time.Second)
	for gfs.syncCount() == base {
		if time.Now().After(deadline) {
			t.Fatal("Expedite never started the group fsync")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and with the sync still in flight, not one ack may have fired.
	time.Sleep(20 * time.Millisecond)
	select {
	case i := <-acks:
		t.Fatalf("append %d acknowledged while the group fsync was still in flight", i)
	default:
	}

	release()
	done.Wait()
	close(acks)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got := 0
	for range acks {
		got++
	}
	if got != n {
		t.Fatalf("%d acks for %d appends", got, n)
	}
	if syncs := gfs.syncCount() - base; syncs != 1 {
		t.Fatalf("%d fsyncs for one expedited group of %d events, want 1", syncs, n)
	}
	if d := s.DurableSeq(); d != n {
		t.Fatalf("DurableSeq = %d after the group sync, want %d", d, n)
	}
	// Everything acked is on "disk": a crash now loses nothing.
	_, rec, err := Open(gfs.MemFS.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != n {
		t.Fatalf("crash copy recovered %d events, want %d", len(rec.Events), n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
