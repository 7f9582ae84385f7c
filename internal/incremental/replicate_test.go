package incremental_test

import (
	"testing"
	"time"

	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/shard"
)

// TestReplicationSurface: the follower-facing entry points. A leader's
// journal exposes its durable watermark, and a bare engine folds the
// shipped checkpoint and events exactly like recovery, refusing a
// checkpoint once it holds state and rejecting garbage loudly.
func TestReplicationSurface(t *testing.T) {
	// Produce a real event + checkpoint stream from a journaled leader.
	tree := journal.NewMemTree()
	leader := openGroup(t, incremental.Config{}, tree)
	if _, err := leader.Add(
		incremental.Record{Fields: map[string]string{"title": "alpha beta"}},
		incremental.Record{Fields: map[string]string{"title": "alpha beta gamma"}},
	); err != nil {
		t.Fatal(err)
	}
	if got := leader.Feeds()[0].Durable(); got != 2 {
		t.Fatalf("leader durable watermark = %d after 2 logged adds", got)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := journal.OpenOptions(tree.CrashCopy().Dir(shard0), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	// A volatile group has no journal to ship.
	volatile, err := shard.New(shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if feeds := volatile.Feeds(); feeds != nil {
		t.Fatalf("volatile group lists feeds %v", feeds)
	}
	volatile.Close()

	// A standby engine installs the shipped checkpoint once, refuses a
	// second (non-empty engine), and matches the leader's state.
	standby := incremental.New(incremental.Config{})
	if err := standby.ApplyCheckpoint(rec.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if err := standby.ApplyCheckpoint(rec.Checkpoint); err == nil {
		t.Fatal("checkpoint installed twice into the same standby")
	}
	if got, want := len(standby.Snapshot().Records), 2; got != want {
		t.Fatalf("standby records = %d, want %d", got, want)
	}

	// Fold one more shipped event and reject garbage loudly.
	if err := standby.Apply(journal.Event{
		Seq:  3,
		Type: journal.EventRecordAdded,
		Record: &journal.RecordData{
			ID:     2,
			Fields: map[string]string{"title": "delta"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(standby.Snapshot().Records); got != 3 {
		t.Fatalf("standby records = %d after folding a shipped add", got)
	}
	if err := standby.Apply(journal.Event{Seq: 4, Type: "no-such-type"}); err == nil {
		t.Fatal("unknown shipped event type folded silently")
	}
}

// TestRouterSurface: what the shard router drives — the engine's
// scored-pending snapshots, answer ledger, stored record lookup and an
// externally computed resolve applied as an event; and, through a
// group-committing journal, answers acknowledged only once durable,
// with a repeated answer journaling nothing.
func TestRouterSurface(t *testing.T) {
	recs := []incremental.Record{
		{Fields: map[string]string{"title": "alpha beta gamma"}},
		{Fields: map[string]string{"title": "alpha beta gamma delta"}},
	}
	e := incremental.New(incremental.Config{})
	ids, err := e.Add(recs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Record(ids[1]).Fields["title"]; got != "alpha beta gamma delta" {
		t.Fatalf("Record(%d) title = %q", ids[1], got)
	}
	if got, want := len(e.PendingScored()), e.PendingPairs(); got != want {
		t.Fatalf("PendingScored returned %d pairs, PendingPairs says %d", got, want)
	}
	if err := e.AddAnswer(ids[0], ids[1], 1.0, "test"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAnswer(ids[0], ids[1], 0.0, "test"); err != nil {
		t.Fatal(err)
	}
	if got := e.AnsweredPairs(); len(got) != 1 {
		t.Fatalf("AnsweredPairs = %v, want exactly the one cached pair", got)
	}
	if err := e.Apply(incremental.ResolveEvent(1, e.Len(), [][]int{{ids[0], ids[1]}})); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Round != 1 || len(snap.Clusters) != 1 || len(snap.Clusters[0]) != 2 {
		t.Fatalf("after the resolve event: round %d clusters %v", snap.Round, snap.Clusters)
	}
	if e.PendingPairs() != 0 {
		t.Fatalf("pending pairs survived a resolve: %d", e.PendingPairs())
	}

	g := openGroup(t, incremental.Config{Commit: journal.GroupPolicy{Window: time.Millisecond}}, journal.NewMemTree())
	defer g.Close()
	if _, err := g.Add(recs...); err != nil {
		t.Fatal(err)
	}
	durable := g.Feeds()[0].Durable
	if err := g.AddAnswer(0, 1, 1.0, "test"); err != nil {
		t.Fatal(err)
	}
	if got := durable(); got != 3 {
		t.Fatalf("answer acknowledged at durable watermark %d, want 3", got)
	}
	// Re-answering a known pair is an idempotent instant ack.
	if err := g.AddAnswer(0, 1, 0.0, "test"); err != nil {
		t.Fatal(err)
	}
	if got := durable(); got != 3 {
		t.Fatalf("repeated answer was journaled: durable watermark %d", got)
	}
	if got := g.Snapshot().Answers; got != 1 {
		t.Fatalf("group holds %d answers, want exactly the one cached pair", got)
	}
}
