package incremental_test

// The engine does no I/O, so its journal tests drive it the way the
// serving stack does: as the one engine of a 1-shard shard.Group, whose
// log writes the journal and whose recovery folds it back through
// Engine.Apply.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/shard"
)

var shard0 = journal.ShardDirName(0)

// openGroup opens (or recovers) a journaled 1-shard group over tree.
func openGroup(t *testing.T, cfg incremental.Config, tree journal.Tree) *shard.Group {
	t.Helper()
	g, err := shard.Open(shard.Config{Shards: 1, Engine: cfg}, tree)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// snapJSON renders an engine checkpoint with the journal position
// zeroed: two engines are in the same state exactly when these match.
func snapJSON(t *testing.T, cp *journal.Checkpoint) string {
	t.Helper()
	cp.Seq = 0
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// engineState returns the full state of the group's engine: the group
// writes a checkpoint — the engine's own Snapshot — and the newest one
// in the shard's journal is read back. It compacts the journal, so
// tests that go on to recover copy the tree first.
func engineState(t *testing.T, g *shard.Group, tree *journal.MemTree) string {
	t.Helper()
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs := tree.Dir(shard0)
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, n := range names {
		if strings.HasPrefix(n, "snap-") {
			newest = n // List is sorted and names are zero-padded
		}
	}
	if newest == "" {
		t.Fatalf("checkpoint left no snapshot in %v", names)
	}
	cp := new(journal.Checkpoint)
	if err := json.Unmarshal(fs.Bytes(newest), cp); err != nil {
		t.Fatal(err)
	}
	return snapJSON(t, cp)
}

// TestCrashPointSweep cuts the WAL at every byte offset and opens a
// group from each truncated image. Recovery must succeed at every cut
// (the torn tail is the only tolerated corruption) and land in exactly
// the state a pure replay of the surviving complete events produces —
// the byte-identical-recovery guarantee, exhaustively.
func TestCrashPointSweep(t *testing.T) {
	tree := journal.NewMemTree()
	cfg := incremental.Config{Seed: 2}
	g := openGroup(t, cfg, tree)
	// A script exercising all three event types across two waves.
	if _, err := g.Add(incremental.SixRecords()...); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAnswer(4, 5, 0.0, "client"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(incremental.Record{Fields: map[string]string{"text": "golden dragon palace chinese broadway blvd"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}

	// No CheckpointEvery, one Open: everything lives in one segment.
	// Every event is acknowledged, hence synced, so the image can be
	// taken before the live state is read (which compacts it).
	fs := tree.Dir(shard0)
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			if seg != "" {
				t.Fatalf("expected one segment, found %v", names)
			}
			seg = n
		}
	}
	if seg == "" {
		t.Fatalf("no segment in %v", names)
	}
	full := fs.Bytes(seg)
	if len(full) == 0 {
		t.Fatal("empty segment")
	}
	want := engineState(t, g, tree)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// The reference event sequence, straight from the bytes.
	var events []journal.Event
	for _, line := range bytes.Split(full, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev journal.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) < 10 {
		t.Fatalf("script produced only %d events — sweep too weak", len(events))
	}

	for cut := 0; cut <= len(full); cut++ {
		prefix := full[:cut]
		crash := journal.NewMemTree()
		crash.Dir(shard0).Put(seg, prefix)

		re, err := shard.Open(shard.Config{Shards: 1, Engine: cfg}, crash)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Complete events in the prefix: one per newline, plus a torn
		// final line that happens to be complete JSON short of its
		// newline — recovery keeps that one too.
		k := bytes.Count(prefix, []byte("\n"))
		if tail := prefix[bytes.LastIndexByte(prefix, '\n')+1:]; len(tail) > 0 && json.Valid(tail) {
			k++
		}
		ref, err := incremental.Rebuild(cfg, nil, events[:k])
		if err != nil {
			t.Fatalf("cut %d: rebuild of %d events failed: %v", cut, k, err)
		}
		got, wantRef := engineState(t, re, crash), snapJSON(t, ref.Snapshot())
		if got != wantRef {
			t.Fatalf("cut %d (%d events): recovered state differs from pure replay:\n got %s\nwant %s", cut, k, got, wantRef)
		}
		if cut == len(full) && got != want {
			t.Fatalf("full-journal recovery differs from live state:\n got %s\nwant %s", got, want)
		}
		re.Close()
	}
}

// TestOracleInvariantAcrossRestart restarts a journaled engine between
// waves and checks two things: the crowd accounting invariant holds on
// the fresh recorder (replayed answers are free — primed, not re-asked),
// and the restarted engine's state is identical to a twin that never
// restarted.
func TestOracleInvariantAcrossRestart(t *testing.T) {
	ds := dataset.Restaurant(3)
	recs := ds.Records[:80]
	half := 40
	cands := pruning.Prune(recs, pruning.Options{})
	answers := crowd.BuildAnswers(cands.PairList(), ds.TruthFn(), crowd.UniformDifficulty(0), crowd.ThreeWorker(5))

	// The group stamps each record with its global id, which at one
	// shard is its position; the twin is fed the same.
	type adder interface {
		Add(...incremental.Record) ([]int, error)
	}
	addRange := func(t *testing.T, e adder, lo, hi int, gids bool) {
		t.Helper()
		for i, r := range recs[lo:hi] {
			rec := incremental.Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)}
			if gids {
				rec.GID = lo + i
			}
			if _, err := e.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	tree := journal.NewMemTree()
	g1 := openGroup(t, incremental.Config{Source: answers, Seed: 7}, tree)
	addRange(t, g1, 0, half, false)
	if _, err := g1.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with a fresh recorder: only wave-2 questions may count.
	rec2 := obs.New()
	g2 := openGroup(t, incremental.Config{Source: answers, Seed: 7, Obs: rec2}, tree)
	addRange(t, g2, half, len(recs), false)
	st2, err := g2.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qa := rec2.Counter(crowd.MetricQuestionsAnswered)
	oi := rec2.Counter(crowd.MetricOracleInvocations)
	if qa != oi {
		t.Errorf("questions_answered %d != oracle_invocations %d after restart", qa, oi)
	}
	if int(qa) != st2.QuestionsAsked {
		t.Errorf("recorder counted %d questions, stats say %d", qa, st2.QuestionsAsked)
	}
	got := engineState(t, g2, tree)
	if err := g2.Close(); err != nil {
		t.Fatal(err)
	}

	// The never-restarted twin (its own recorder, so the shared
	// AnswerSet doesn't leak counts between runs).
	twin := incremental.New(incremental.Config{Source: answers, Seed: 7, Obs: obs.New()})
	addRange(t, twin, 0, half, true)
	if _, err := twin.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	addRange(t, twin, half, len(recs), true)
	if _, err := twin.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := snapJSON(t, twin.Snapshot()); got != want {
		t.Fatalf("restarted engine differs from never-restarted twin:\n got %s\nwant %s", got, want)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	tree := journal.NewMemTree()
	cfg := incremental.Config{Seed: 3}
	g := openGroup(t, cfg, tree)
	if _, err := g.Add(incremental.SixRecords()...); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAnswer(4, 5, 0.0, "client"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	img := tree.CrashCopy() // the WAL as written, before engineState compacts it
	want := engineState(t, g, tree)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := openGroup(t, cfg, img)
	defer g2.Close()
	if got := engineState(t, g2, img); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The recovered engine keeps working: add one more duplicate and
	// resolve again.
	if _, err := g2.Add(incremental.Record{Fields: map[string]string{"text": "harbor seafood grill market st s"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := g2.Snapshot().Clusters; !reflect.DeepEqual(got, [][]int{{0, 1}, {2, 3}, {4, 6}, {5}}) {
		t.Fatalf("post-recovery clusters = %v", got)
	}
}

// TestCheckpointRecovery: automatic checkpoints compact the journal and
// recovery from checkpoint + tail events lands in the identical state.
func TestCheckpointRecovery(t *testing.T) {
	tree := journal.NewMemTree()
	cfg := incremental.Config{Seed: 5, CheckpointEvery: 4}
	g := openGroup(t, cfg, tree)
	ds := dataset.Restaurant(2)
	for _, r := range ds.Records[:40] {
		if _, err := g.Add(incremental.Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	img := tree.CrashCopy()
	want := engineState(t, g, tree)
	g.Close()

	names, _ := img.Dir(shard0).List()
	hasSnap := false
	for _, n := range names {
		if strings.HasPrefix(n, "snap-") {
			hasSnap = true
		}
	}
	if !hasSnap {
		t.Fatalf("CheckpointEvery=4 wrote no snapshot; files: %v", names)
	}

	g2 := openGroup(t, cfg, img)
	defer g2.Close()
	if got := engineState(t, g2, img); got != want {
		t.Fatalf("checkpoint recovery differs:\n got %s\nwant %s", got, want)
	}
}
