package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"acd/internal/obs"
)

// Event types. The journal is an effect log: resolve events carry the
// resulting clustering itself, so replay applies recorded effects
// instead of re-running the (crowd-consuming) algorithm.
const (
	// EventRecordAdded logs one record entering the engine.
	EventRecordAdded = "record-added"
	// EventAnswer logs one crowd answer the engine received and cached.
	EventAnswer = "answer"
	// EventResolve logs a completed resolve pass and the clustering it
	// produced.
	EventResolve = "resolve"
)

// Event is one journal entry. Exactly one of Record, Answer, Resolve is
// set, matching Type. Seq is assigned by Append: strictly increasing,
// unique across the journal's lifetime including restarts.
type Event struct {
	// Seq is the event's sequence number.
	Seq int64 `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Record is the payload of an EventRecordAdded event.
	Record *RecordData `json:"record,omitempty"`
	// Answer is the payload of an EventAnswer event.
	Answer *AnswerData `json:"answer,omitempty"`
	// Resolve is the payload of an EventResolve event.
	Resolve *ResolveData `json:"resolve,omitempty"`
}

// RecordData is the journaled form of one input record.
type RecordData struct {
	// ID is the engine-assigned record id (dense, insertion order).
	ID int `json:"id"`
	// GID is the router-assigned global id when this journal belongs to
	// one shard of a sharded group; 0 (and ignored) for standalone
	// single-engine journals, where ID is the only id space.
	GID int `json:"gid,omitempty"`
	// Fields are the record's named fields.
	Fields map[string]string `json:"fields"`
	// Entity is the optional ground-truth entity label ("" = unknown).
	Entity string `json:"entity,omitempty"`
}

// AnswerData is the journaled form of one cached crowd answer.
type AnswerData struct {
	// Lo and Hi identify the pair, canonical Lo < Hi.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// FC is the fraction of workers answering "match".
	FC float64 `json:"fc"`
	// Source records answer provenance (e.g. "crowd", "machine",
	// "client"); empty means the default crowd source.
	Source string `json:"source,omitempty"`
}

// ResolveData is the journaled effect of one resolve pass.
type ResolveData struct {
	// Round numbers resolve passes from 1.
	Round int `json:"round"`
	// ResolvedUpTo is the count of records covered by this pass: all ids
	// < ResolvedUpTo are clustered.
	ResolvedUpTo int `json:"resolvedUpTo"`
	// Clusters is the full clustering after the pass, in the canonical
	// order cluster.Sets produces.
	Clusters [][]int `json:"clusters"`
}

// Recovered is what Open found on disk: the newest checkpoint (nil if
// none) and every event after it, in sequence order.
type Recovered struct {
	// Checkpoint is the newest readable checkpoint, or nil.
	Checkpoint *Checkpoint
	// Events are the events with Seq beyond the checkpoint, ascending.
	Events []Event
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".json"
	tmpSuffix  = ".tmp"
)

// Journal health metrics, reported through Options.Obs.
const (
	// MetricSyncDirErrors counts failed directory fsyncs during
	// compaction garbage collection. Removals are retried on the next
	// checkpoint, so a nonzero count is a disk-health warning, not data
	// loss — but it must not vanish silently.
	MetricSyncDirErrors = "journal/syncdir_errors"
	// MetricSegmentsRotated counts WAL segment rotations.
	MetricSegmentsRotated = "journal/segments_rotated"
	// MetricGroupCommits counts commit groups synced by a Committer.
	MetricGroupCommits = "journal/group_commits"
	// MetricGroupedEvents counts events acknowledged through group
	// commits; MetricGroupedEvents / MetricGroupCommits is the realized
	// batching factor.
	MetricGroupedEvents = "journal/grouped_events"
)

// Options tunes a Store beyond its filesystem. The zero value matches
// the historical behavior: no rotation, no metrics.
type Options struct {
	// RotateBytes rotates the live WAL segment once its committed size
	// reaches this many bytes; 0 disables rotation. Rotation happens
	// only at commit boundaries and syncs the outgoing segment's tail,
	// so every byte in a closed segment is durable (a pipelined
	// committer's next group may straddle the boundary; its events are
	// still acked only by their own group's sync).
	RotateBytes int64
	// Obs receives journal health metrics. Nil records nothing.
	Obs *obs.Recorder
}

// Store is an open journal: an append-side WAL segment plus checkpoint
// management. It is not safe for concurrent use; the engine (or a
// Committer) serializes access.
type Store struct {
	fs      FS
	opt     Options
	cur     File
	curName string
	nextSeq int64

	curBytes int64 // bytes written to the live segment
	pending  int   // events written but not yet committed
	err      error // sticky: a write/sync/rotate failure poisons the store

	// durable is the highest sequence number known to be on stable
	// storage (fsynced, or covered by an installed checkpoint). It is
	// the one Store field readable without external serialization:
	// replication streamers poll it from other goroutines to bound what
	// they ship.
	durable atomic.Int64
}

// Open recovers the journal in fs and opens a fresh WAL segment for
// appending, with default Options (no rotation, no metrics).
func Open(fs FS) (*Store, Recovered, error) {
	return OpenOptions(fs, Options{})
}

// OpenOptions recovers the journal in fs and opens a fresh WAL segment
// for appending. The returned Recovered holds everything needed to
// rebuild state: newest checkpoint plus post-checkpoint events. A torn
// final line in any segment is dropped (crash mid-append or mid-group —
// appends only ever tear at the live segment's tail, and recovery
// leaves the torn bytes behind when it opens the next segment); any
// other malformed content is an error.
func OpenOptions(fs FS, opt Options) (*Store, Recovered, error) {
	var rec Recovered
	names, err := fs.List()
	if err != nil {
		return nil, rec, fmt.Errorf("journal: listing dir: %w", err)
	}

	// Only the newest checkpoint is read: older snapshots are superseded
	// garbage awaiting compaction and never consulted, so their
	// corruption cannot block recovery. A corrupt newest checkpoint is
	// fatal — it was the durable state. Leftover .tmp files (crash
	// before rename) are ignored entirely.
	snapSeq := int64(-1)
	snapFile := ""
	for _, n := range names {
		if seq, ok := parseName(n, snapPrefix, snapSuffix); ok && seq > snapSeq {
			snapSeq, snapFile = seq, n
		}
	}
	if snapFile != "" {
		b, err := fs.ReadFile(snapFile)
		if err != nil {
			return nil, rec, fmt.Errorf("journal: reading %s: %w", snapFile, err)
		}
		cp := new(Checkpoint)
		if err := json.Unmarshal(b, cp); err != nil {
			return nil, rec, fmt.Errorf("journal: corrupt checkpoint %s: %w", snapFile, err)
		}
		if cp.Seq != snapSeq {
			return nil, rec, fmt.Errorf("journal: checkpoint %s claims seq %d", snapFile, cp.Seq)
		}
		rec.Checkpoint = cp
	}

	// Replay segments in order, keeping events past the checkpoint.
	var segs []string
	for _, n := range names {
		if _, ok := parseName(n, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	lastSeq := snapSeq
	if lastSeq < 0 {
		lastSeq = 0 // no checkpoint: replay starts at seq 1
	}
	for _, n := range segs {
		b, err := fs.ReadFile(n)
		if err != nil {
			return nil, rec, fmt.Errorf("journal: reading %s: %w", n, err)
		}
		lines := bytes.Split(b, []byte("\n"))
		for li, line := range lines {
			if len(line) == 0 {
				continue
			}
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				// An unparseable final line is a torn tail. The dropped
				// event's seq is reassigned to the next segment's first
				// event, so the contiguity check below still catches a
				// lost durable event.
				if li == len(lines)-1 {
					break
				}
				return nil, rec, fmt.Errorf("journal: corrupt event at %s line %d: %w", n, li+1, err)
			}
			if ev.Seq <= snapSeq {
				continue // compacted into the checkpoint already
			}
			if ev.Seq != lastSeq+1 {
				return nil, rec, fmt.Errorf("journal: sequence gap: event %d after %d in %s", ev.Seq, lastSeq, n)
			}
			lastSeq = ev.Seq
			rec.Events = append(rec.Events, ev)
		}
	}

	s := &Store{fs: fs, opt: opt, nextSeq: lastSeq + 1}
	if s.nextSeq < 1 {
		s.nextSeq = 1
	}
	s.durable.Store(s.nextSeq - 1)
	s.curName = segName(s.nextSeq)
	if s.cur, err = fs.Create(s.curName); err != nil {
		return nil, rec, fmt.Errorf("journal: opening segment: %w", err)
	}
	// The segment's directory entry must be durable before any append
	// is acknowledged: without this, a power loss could drop the whole
	// file even though every event in it was fsynced.
	if err := fs.SyncDir(); err != nil {
		s.cur.Close()
		return nil, rec, fmt.Errorf("journal: syncing dir after segment create: %w", err)
	}
	return s, rec, nil
}

// NextSeq returns the sequence number the next Append will assign.
func (s *Store) NextSeq() int64 { return s.nextSeq }

// DurableSeq returns the highest sequence number known to be on stable
// storage. Events at or below it survive a power loss; events above it
// may still be buffered. Unlike every other Store method it is safe to
// call concurrently with appends — replication reads it to decide how
// far it may ship.
func (s *Store) DurableSeq() int64 { return s.durable.Load() }

// Append assigns the event's sequence number, writes it to the current
// segment and syncs it to stable storage before returning. On return
// the event is durable. Equivalent to AppendBuffered followed by
// Commit — one fsync per event. The serving stack appends through a
// Committer; only tests and fixtures that build a journal by hand call
// this.
func (s *Store) Append(ev Event) (int64, error) {
	seq, err := s.AppendBuffered(ev)
	if err != nil {
		return 0, err
	}
	if err := s.Commit(); err != nil {
		return 0, err
	}
	return seq, nil
}

// AppendBuffered assigns the event's sequence number and writes it to
// the current segment WITHOUT forcing it to stable storage. The event
// becomes durable at the next Commit; until then a crash may lose it
// (a torn tail recovery drops silently). A write failure poisons the
// store: the buffered suffix's durability is unknown, so no further
// appends are accepted.
func (s *Store) AppendBuffered(ev Event) (int64, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.cur == nil {
		return 0, ErrClosed
	}
	ev.Seq = s.nextSeq
	b, err := json.Marshal(ev)
	if err != nil {
		return 0, fmt.Errorf("journal: marshaling event: %w", err)
	}
	b = append(b, '\n')
	if _, err := s.cur.Write(b); err != nil {
		s.err = fmt.Errorf("journal: appending event: %w", err)
		return 0, s.err
	}
	s.nextSeq++
	s.curBytes += int64(len(b))
	s.pending++
	return ev.Seq, nil
}

// Pending returns the number of buffered events not yet committed.
func (s *Store) Pending() int { return s.pending }

// Commit syncs every buffered event to stable storage — the single
// fsync a commit group shares — then rotates the live segment if it
// has outgrown Options.RotateBytes. On a nil return every preceding
// append is durable. A sync or rotation failure poisons the store.
func (s *Store) Commit() error {
	if s.err != nil {
		return s.err
	}
	if s.cur == nil {
		return ErrClosed
	}
	if s.pending == 0 {
		return nil
	}
	if err := s.cur.Sync(); err != nil {
		s.err = fmt.Errorf("journal: syncing commit group: %w", err)
		return s.err
	}
	s.pending = 0
	s.durable.Store(s.nextSeq - 1)
	if s.opt.RotateBytes > 0 && s.curBytes >= s.opt.RotateBytes {
		if err := s.rotate(); err != nil {
			s.err = err
			return s.err
		}
	}
	return nil
}

// rotate closes the full live segment and opens a fresh one named after
// the next sequence number. The old segment is synced before it closes:
// Close is not a durability barrier, and a pipelined committer may have
// appended events of the NEXT group to this segment during its
// out-of-lock group fsync — without the sync here, a power loss after
// rotation could lose those events even though their acks later ride
// the new segment's sync. After the sync nothing in the old segment is
// pending. The new segment's directory entry is made durable before
// any append into it is acknowledged, mirroring Open.
func (s *Store) rotate() error {
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("journal: syncing rotated segment: %w", err)
	}
	s.pending = 0
	s.durable.Store(s.nextSeq - 1)
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("journal: closing rotated segment: %w", err)
	}
	name := segName(s.nextSeq)
	f, err := s.fs.Create(name)
	if err != nil {
		s.cur = nil
		return fmt.Errorf("journal: creating rotated segment: %w", err)
	}
	s.cur, s.curName, s.curBytes = f, name, 0
	if err := s.fs.SyncDir(); err != nil {
		return fmt.Errorf("journal: syncing dir after rotation: %w", err)
	}
	s.opt.Obs.Count(MetricSegmentsRotated, 1)
	return nil
}

// WriteCheckpoint durably installs a compacted snapshot via
// tmp + sync + rename, then drops WAL segments and snapshots it makes
// redundant. cp.Seq must be the seq of the last event the snapshot
// covers (its state is the fold of events 1..Seq).
func (s *Store) WriteCheckpoint(cp *Checkpoint) error {
	if s.err != nil {
		return s.err
	}
	if cp.Seq >= s.nextSeq {
		return fmt.Errorf("journal: checkpoint seq %d beyond journal head %d", cp.Seq, s.nextSeq-1)
	}
	if err := s.installSnapshot(cp); err != nil {
		return err
	}
	s.compact(cp.Seq)
	return nil
}

// installSnapshot durably writes the checkpoint file via tmp + sync +
// rename + dir-sync. It does not compact or touch the live segment.
func (s *Store) installSnapshot(cp *Checkpoint) error {
	b, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return fmt.Errorf("journal: marshaling checkpoint: %w", err)
	}
	final := snapName(cp.Seq)
	tmp := final + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: creating checkpoint tmp: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: closing checkpoint: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: installing checkpoint: %w", err)
	}
	// Make the rename durable before compact deletes the WAL segments
	// the checkpoint covers — otherwise a power loss could lose both the
	// checkpoint (un-synced dir entry) and the events it replaced.
	if err := s.fs.SyncDir(); err != nil {
		return fmt.Errorf("journal: syncing dir after checkpoint install: %w", err)
	}
	return nil
}

// compact removes snapshots older than seq and WAL segments whose every
// event is covered by the snapshot at seq. Failures are ignored: the
// garbage is retried on the next checkpoint and harmless meanwhile.
func (s *Store) compact(seq int64) {
	names, err := s.fs.List()
	if err != nil {
		return
	}
	var segFirst []int64
	var segNames []string
	for _, n := range names {
		if sq, ok := parseName(n, snapPrefix, snapSuffix); ok && sq < seq {
			s.fs.Remove(n)
		}
		if strings.HasSuffix(n, tmpSuffix) {
			s.fs.Remove(n)
		}
		if sq, ok := parseName(n, segPrefix, segSuffix); ok {
			segFirst = append(segFirst, sq)
			segNames = append(segNames, n)
		}
	}
	// Segment i's events all precede segment i+1's first seq; it is
	// disposable once the checkpoint covers that whole range. The live
	// segment is never removed.
	for i := 0; i+1 < len(segNames); i++ {
		if segNames[i] != s.curName && segFirst[i+1] <= seq+1 {
			s.fs.Remove(segNames[i])
		}
	}
	// Removals are garbage collection; durability is best-effort and
	// retried on the next checkpoint. A failed barrier is still a disk
	// health signal, so it is counted rather than dropped.
	if err := s.fs.SyncDir(); err != nil {
		s.opt.Obs.Count(MetricSyncDirErrors, 1)
	}
}

// Sync forces the current segment to stable storage. Appends already
// sync; this exists for explicit barriers (e.g. before process exit).
func (s *Store) Sync() error {
	if s.err != nil {
		return s.err
	}
	if s.cur == nil {
		return ErrClosed
	}
	if err := s.cur.Sync(); err != nil {
		return err
	}
	s.durable.Store(s.nextSeq - 1)
	return nil
}

// Close syncs and closes the current segment (committing any buffered
// events on the way out). The store is unusable afterwards.
func (s *Store) Close() error {
	if s.cur == nil {
		return nil
	}
	var serr error
	if s.err == nil && s.pending > 0 {
		serr = s.cur.Sync()
		s.pending = 0
		if serr == nil {
			s.durable.Store(s.nextSeq - 1)
		}
	}
	err := s.cur.Close()
	s.cur = nil
	if serr != nil {
		return serr
	}
	return err
}

func segName(first int64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func snapName(seq int64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// parseName extracts the sequence number from a journal file name of
// the form <prefix><seq><suffix>; ok is false for foreign names.
func parseName(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" || strings.Contains(mid, ".") {
		return 0, false
	}
	seq, err := strconv.ParseInt(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("journal: store closed")
