package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"acd/internal/dataset"
	"acd/internal/incremental"
	"acd/internal/journal"
)

// crashCfg is the shared config for the sharded crash battery: machine
// answers only, so recovery replays never need a crowd.
func crashCfg() Config {
	return Config{Shards: 3, Engine: incremental.Config{Seed: 5}}
}

// crashRecords returns the fixture records for the crash battery.
func crashRecords() []incremental.Record {
	ds := dataset.Restaurant(1)
	recs := make([]incremental.Record, 18)
	for i, r := range ds.Records[:18] {
		recs[i] = incremental.Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)}
	}
	return recs
}

// buildCrashImage runs the crash script against a fresh MemTree: wave 1
// (12 records + a spread of answers + a resolve), then — when withWave2
// is set — 6 more records whose WAL entries form the cuttable suffix.
// It returns the closed tree and the live group's final state digest.
func buildCrashImage(t *testing.T, withWave2 bool) (*journal.MemTree, string) {
	t.Helper()
	tree := journal.NewMemTree()
	g, err := Open(crashCfg(), tree)
	if err != nil {
		t.Fatal(err)
	}
	recs := crashRecords()
	if _, err := g.Add(recs[:12]...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := g.AddAnswer(i, i+4, float64(i%2), "client"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if withWave2 {
		if _, err := g.Add(recs[12:]...); err != nil {
			t.Fatal(err)
		}
	}
	digest := snapDigest(t, g)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// The battery's surgery assumes the fixture exercises both answer
	// homes: at least one answer at the router (cross-shard) and at
	// least one inside a shard journal. Fail loudly if the fixture ever
	// degrades to one path.
	if !walHasType(t, tree.Dir(journal.RouterDir), journal.EventAnswer) {
		t.Fatal("fixture too weak: no cross-shard answer reached the router journal")
	}
	inShard := false
	for s := 0; s < crashCfg().Shards; s++ {
		if walHasType(t, tree.Dir(journal.ShardDirName(s)), journal.EventAnswer) {
			inShard = true
		}
	}
	if !inShard {
		t.Fatal("fixture too weak: no same-shard answer reached a shard journal")
	}
	return tree, digest
}

// snapDigest serializes a group's published snapshot — the full
// externally-visible state — for equality comparisons.
func snapDigest(t *testing.T, g *Group) string {
	t.Helper()
	return mustJSON(t, g.Snapshot())
}

// walImage returns the name and synced bytes of a directory's single
// WAL segment (the battery runs without checkpoints, so there is
// exactly one).
func walImage(t *testing.T, fs *journal.MemFS) (string, []byte) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	seg := ""
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			if seg != "" {
				t.Fatalf("expected one WAL segment, found %v", names)
			}
			seg = n
		}
		if strings.HasPrefix(n, "snap-") {
			t.Fatalf("unexpected checkpoint %s — surgery assumes WAL-only state", n)
		}
	}
	if seg == "" {
		t.Fatalf("no WAL segment in %v", names)
	}
	return seg, fs.Bytes(seg)
}

// walLine is one journal line with its byte span (end is past the
// trailing newline).
type walLine struct {
	start, end int
	ev         journal.Event
}

// walLines parses a WAL image into lines with byte offsets.
func walLines(t *testing.T, b []byte) []walLine {
	t.Helper()
	var lines []walLine
	start := 0
	for start < len(b) {
		nl := bytes.IndexByte(b[start:], '\n')
		if nl < 0 {
			t.Fatalf("WAL image ends without newline at offset %d", start)
		}
		end := start + nl + 1
		var ev journal.Event
		if err := json.Unmarshal(b[start:end-1], &ev); err != nil {
			t.Fatalf("WAL line at %d: %v", start, err)
		}
		lines = append(lines, walLine{start: start, end: end, ev: ev})
		start = end
	}
	return lines
}

// walHasType reports whether any line of the directory's WAL has the
// given event type.
func walHasType(t *testing.T, fs *journal.MemFS, typ string) bool {
	t.Helper()
	_, b := walImage(t, fs)
	for _, l := range walLines(t, b) {
		if l.ev.Type == typ {
			return true
		}
	}
	return false
}

// completeEvents counts the events a truncated WAL prefix preserves:
// one per newline, plus a torn final line that happens to be complete
// JSON short of its newline (recovery keeps that one too).
func completeEvents(prefix []byte) int {
	k := bytes.Count(prefix, []byte("\n"))
	if tail := prefix[bytes.LastIndexByte(prefix, '\n')+1:]; len(tail) > 0 && json.Valid(tail) {
		k++
	}
	return k
}

// TestShardCrashSweepRecordSuffix cuts one shard's WAL at every byte
// offset inside its post-resolve record suffix while the other shards
// stay clean — every such image is a reachable power-loss state,
// because post-resolve record appends have no cross-journal dependents.
// Recovery must succeed at every cut, restore exactly the cut shard's
// durable prefix (and every other shard in full), and be byte-for-byte
// equivalent to recovering the event-aligned image — including after a
// further resolve, which exercises the rebuilt probe index and handoff
// queue over the surviving records.
func TestShardCrashSweepRecordSuffix(t *testing.T) {
	cfg := crashCfg()
	tree, finalDigest := buildCrashImage(t, true)

	fullSnapshots := make([]int, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		_, b := walImage(t, tree.Dir(journal.ShardDirName(s)))
		for _, l := range walLines(t, b) {
			if l.ev.Type == journal.EventRecordAdded {
				fullSnapshots[s]++
			}
		}
	}

	for s := 0; s < cfg.Shards; s++ {
		dir := journal.ShardDirName(s)
		seg, full := walImage(t, tree.Dir(dir))
		lines := walLines(t, full)
		sweepFrom := -1
		for _, l := range lines {
			if l.ev.Type == journal.EventResolve {
				sweepFrom = l.end
			}
		}
		if sweepFrom < 0 {
			t.Fatalf("shard %d WAL has no resolve event", s)
		}

		for cut := sweepFrom; cut <= len(full); cut++ {
			prefix := full[:cut]
			k := completeEvents(prefix)

			crash := tree.CrashCopy()
			crash.Dir(dir).Put(seg, prefix)
			g, err := Open(cfg, crash)
			if err != nil {
				t.Fatalf("shard %d cut %d: recovery failed: %v", s, cut, err)
			}

			survivors := 0
			for _, l := range lines[:k] {
				if l.ev.Type == journal.EventRecordAdded {
					survivors++
				}
			}
			snap := g.Snapshot()
			if got := snap.PerShard[s].Records; got != survivors {
				t.Fatalf("shard %d cut %d: recovered %d records, durable prefix holds %d", s, cut, got, survivors)
			}
			for o := 0; o < cfg.Shards; o++ {
				if o != s && snap.PerShard[o].Records != fullSnapshots[o] {
					t.Fatalf("shard %d cut %d: clean shard %d lost records (%d of %d)",
						s, cut, o, snap.PerShard[o].Records, fullSnapshots[o])
				}
			}

			// Event-aligned twin: the byte cut must be indistinguishable
			// from losing whole trailing events.
			aligned := tree.CrashCopy()
			var alignedBytes []byte
			if k > 0 {
				alignedBytes = full[:lines[k-1].end]
			}
			aligned.Dir(dir).Put(seg, alignedBytes)
			ref, err := Open(cfg, aligned)
			if err != nil {
				t.Fatalf("shard %d cut %d: event-aligned recovery failed: %v", s, cut, err)
			}
			if got, want := snapDigest(t, g), snapDigest(t, ref); got != want {
				t.Fatalf("shard %d cut %d: byte-cut recovery differs from event-aligned replay:\n got %s\nwant %s", s, cut, got, want)
			}
			if cut == len(full) && snapDigest(t, g) != finalDigest {
				t.Fatalf("shard %d: full-image recovery differs from live state:\n got %s\nwant %s", s, snapDigest(t, g), finalDigest)
			}

			// The surviving records must still resolve identically —
			// this walks the rebuilt probe index and handoff queue.
			if _, err := g.Resolve(context.Background()); err != nil {
				t.Fatalf("shard %d cut %d: resolve after recovery: %v", s, cut, err)
			}
			if _, err := ref.Resolve(context.Background()); err != nil {
				t.Fatalf("shard %d cut %d: resolve after aligned recovery: %v", s, cut, err)
			}
			if got, want := snapDigest(t, g), snapDigest(t, ref); got != want {
				t.Fatalf("shard %d cut %d: post-recovery resolve diverged:\n got %s\nwant %s", s, cut, got, want)
			}
			g.Close()
			ref.Close()
		}
	}
}

// TestShardCrashSweepBatchedRequests is the sweep over a history of
// batched requests, each committed once per journal it touches: records
// in two Adds, then answers in AddAnswers batches of four that mix shard
// and router homes. One journal at a time is cut at every byte while the
// others stay whole — over its answer suffix, whose events no other
// journal depends on, and with one shard (one journal, one total order)
// over the records too. At every cut recovery must succeed, restore
// exactly the events the cut preserves (a prefix of that journal's event
// stream, indistinguishable from losing whole trailing events), and
// hold every request that had been acknowledged by the time that many
// bytes were durable, whole.
func TestShardCrashSweepBatchedRequests(t *testing.T) {
	recs := crashRecords()
	for _, shards := range []int{1, 3} {
		cfg := crashCfg()
		cfg.Shards = shards
		dirs := journalDirs(shards)
		if shards == 1 {
			dirs = dirs[1:] // a 1-shard layout keeps no router journal
		}
		tree := journal.NewMemTree()
		g, err := Open(cfg, tree)
		if err != nil {
			t.Fatal(err)
		}

		// acked is what one acknowledgment promised: the state its
		// caller could see, and how many bytes of each journal were
		// durable by then.
		type acked struct {
			records, answers int
			synced           map[string]int
		}
		var history []acked
		ack := func() {
			snap := g.Snapshot()
			a := acked{records: snap.Records, answers: snap.Answers, synced: make(map[string]int)}
			for _, d := range dirs {
				_, b := walImage(t, tree.Dir(d))
				a.synced[d] = len(b)
			}
			history = append(history, a)
		}
		for _, batch := range [][]incremental.Record{recs[:12], recs[12:]} {
			if _, err := g.Add(batch...); err != nil {
				t.Fatal(err)
			}
			ack()
		}
		recordsEnd := history[len(history)-1].synced
		same, cross := answerHomes(g, len(recs))
		var pool []Answer // round-robin over the homes, so batches mix them
		for i := 0; i < 6; i++ {
			for _, d := range dirs {
				if as := same[d]; i < len(as) {
					pool = append(pool, as[i])
				}
			}
			if i < len(cross) {
				pool = append(pool, cross[i])
			}
		}
		if shards > 1 && len(cross) == 0 {
			t.Fatal("fixture too weak: no cross-shard pair")
		}
		for ; len(pool) >= 4; pool = pool[4:] {
			if n, err := g.AddAnswers(pool[:4]); err != nil || n != 4 {
				t.Fatalf("AddAnswers = (%d, %v)", n, err)
			}
			ack()
		}
		final := history[len(history)-1]
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}

		for _, dir := range dirs {
			seg, full := walImage(t, tree.Dir(dir))
			lines := walLines(t, full)
			from := recordsEnd[dir]
			if shards == 1 {
				from = 0
			}
			if from == len(full) {
				t.Fatalf("fixture too weak: no answer reached %s", dir)
			}
			open := func(image []byte) *Snapshot {
				crash := tree.CrashCopy()
				crash.Dir(dir).Put(seg, image)
				g, err := Open(cfg, crash)
				if err != nil {
					t.Fatalf("%d shards, %s cut to %d bytes: recovery failed: %v", shards, dir, len(image), err)
				}
				defer g.Close()
				return g.Snapshot()
			}
			for cut := from; cut <= len(full); cut++ {
				k := completeEvents(full[:cut])
				lostRecords, lostAnswers := 0, 0
				for _, l := range lines[k:] {
					switch l.ev.Type {
					case journal.EventRecordAdded:
						lostRecords++
					case journal.EventAnswer:
						lostAnswers++
					}
				}
				got := open(full[:cut])
				if got.Records != final.records-lostRecords || got.Answers != final.answers-lostAnswers {
					t.Fatalf("%d shards, %s cut %d: recovered %d records and %d answers, the cut preserves %d and %d",
						shards, dir, cut, got.Records, got.Answers, final.records-lostRecords, final.answers-lostAnswers)
				}
				var aligned []byte
				if k > 0 {
					aligned = full[:lines[k-1].end]
				}
				if got, want := mustJSON(t, got), mustJSON(t, open(aligned)); got != want {
					t.Fatalf("%d shards, %s cut %d: byte-cut recovery differs from event-aligned replay:\n got %s\nwant %s", shards, dir, cut, got, want)
				}
				for i, a := range history {
					if a.synced[dir] <= cut && (got.Records < a.records || got.Answers < a.answers) {
						t.Fatalf("%d shards, %s cut %d: request %d was acknowledged with %d bytes durable (%d records, %d answers); recovery holds %d and %d",
							shards, dir, cut, i, a.synced[dir], a.records, a.answers, got.Records, got.Answers)
					}
				}
			}
		}
	}
}

// TestShardCrashSweepResolveFanOut crashes the resolve fan-out at every
// byte: the router has committed the global resolve, shards below s
// have their restriction, shard s's append is torn at byte `cut`, and
// shards above s never started (fan-out runs in shard order). Recovery
// must repair every lagging shard from the router's record, land in
// exactly the no-crash state, and make the repair durable — a second
// reopen of the same image must agree.
func TestShardCrashSweepResolveFanOut(t *testing.T) {
	cfg := crashCfg()
	tree, finalDigest := buildCrashImage(t, false)

	type shardWAL struct {
		seg          string
		full         []byte
		resolveStart int
	}
	wals := make([]shardWAL, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		seg, full := walImage(t, tree.Dir(journal.ShardDirName(s)))
		lines := walLines(t, full)
		last := lines[len(lines)-1]
		if last.ev.Type != journal.EventResolve {
			t.Fatalf("shard %d WAL does not end with the resolve fan-out", s)
		}
		wals[s] = shardWAL{seg: seg, full: full, resolveStart: last.start}
	}

	for s := 0; s < cfg.Shards; s++ {
		for cut := wals[s].resolveStart; cut <= len(wals[s].full); cut++ {
			crash := tree.CrashCopy()
			crash.Dir(journal.ShardDirName(s)).Put(wals[s].seg, wals[s].full[:cut])
			for o := s + 1; o < cfg.Shards; o++ {
				crash.Dir(journal.ShardDirName(o)).Put(wals[o].seg, wals[o].full[:wals[o].resolveStart])
			}

			g, err := Open(cfg, crash)
			if err != nil {
				t.Fatalf("shard %d cut %d: recovery failed: %v", s, cut, err)
			}
			if got := snapDigest(t, g); got != finalDigest {
				t.Fatalf("shard %d cut %d: repaired state differs from no-crash state:\n got %s\nwant %s", s, cut, got, finalDigest)
			}
			if err := g.Close(); err != nil {
				t.Fatalf("shard %d cut %d: close after repair: %v", s, cut, err)
			}

			// The repair itself must be durable: reopening the same tree
			// (no further surgery) must land in the same state.
			g2, err := Open(cfg, crash)
			if err != nil {
				t.Fatalf("shard %d cut %d: reopen after repair failed: %v", s, cut, err)
			}
			if got := snapDigest(t, g2); got != finalDigest {
				t.Fatalf("shard %d cut %d: repair did not stick across reopen:\n got %s\nwant %s", s, cut, got, finalDigest)
			}
			g2.Close()
		}
	}
}

// TestGroupCommitWALBytesIdentical replays the crash fixture's script
// with group commit enabled and asserts every journal — router and all
// shards — is BYTE-identical to the unbatched run after a clean close.
// Group commit changes when fsyncs happen, never what is written or in
// what order; this is what keeps the whole crash battery's reachable
// image space (and the recovery code) one and the same for both modes.
func TestGroupCommitWALBytesIdentical(t *testing.T) {
	run := func(cfg Config) *journal.MemTree {
		tree := journal.NewMemTree()
		g, err := Open(cfg, tree)
		if err != nil {
			t.Fatal(err)
		}
		recs := crashRecords()
		if _, err := g.Add(recs[:12]...); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := g.AddAnswer(i, i+4, float64(i%2), "client"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.Resolve(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(recs[12:]...); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		return tree
	}

	plain := run(crashCfg())
	batched := crashCfg()
	batched.Engine.Commit = journal.GroupPolicy{Window: 2 * time.Millisecond, MaxEvents: 16}
	grouped := run(batched)

	dirs := []string{journal.RouterDir}
	for s := 0; s < crashCfg().Shards; s++ {
		dirs = append(dirs, journal.ShardDirName(s))
	}
	for _, d := range dirs {
		seg, want := walImage(t, plain.Dir(d))
		segG, got := walImage(t, grouped.Dir(d))
		if seg != segG {
			t.Errorf("%s: segment name %q vs %q", d, segG, seg)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: WAL bytes differ under group commit (%d vs %d bytes)", d, len(got), len(want))
		}
	}
}

// TestShardAheadOfRouterRejected pairs journals that violate the commit
// order: the router's resolve record is gone but the shards already
// applied theirs. No crash can produce this (the router commits first),
// so recovery must refuse the directory rather than guess.
func TestShardAheadOfRouterRejected(t *testing.T) {
	cfg := crashCfg()
	tree, _ := buildCrashImage(t, false)

	seg, full := walImage(t, tree.Dir(journal.RouterDir))
	lines := walLines(t, full)
	last := lines[len(lines)-1]
	if last.ev.Type != journal.EventResolve {
		t.Fatal("router WAL does not end with the resolve commit")
	}
	tree.Dir(journal.RouterDir).Put(seg, full[:last.start])

	if _, err := Open(cfg, tree.CrashCopy()); err == nil {
		t.Fatal("recovery accepted shards ahead of the router")
	} else if !strings.Contains(err.Error(), "ahead of the router") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestLegacyJournalAdoption opens a pre-sharding single-engine journal
// through the sharded stack: the group must adopt it in place (shard 0
// at the tree root), derive identity global ids, accept new work, and
// keep the directory reopenable — while a multi-shard open of the same
// directory is refused.
func TestLegacyJournalAdoption(t *testing.T) {
	tree := journal.NewMemTree()
	recs := crashRecords()

	// A PR-5-era engine wrote its journal at the directory root, with
	// no gids: rebuild one from an in-memory engine's events.
	eng := incremental.New(incremental.Config{Seed: 5})
	if _, err := eng.Add(recs[:6]...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := eng.Clusters()
	legacy, _, err := journal.Open(tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	state := eng.Snapshot()
	for i, data := range state.Records {
		if _, err := legacy.Append(incremental.RecordEvent(i, incremental.Record{Fields: data.Fields, Entity: data.Entity})); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range state.Answers {
		if _, err := legacy.Append(journal.Event{Type: journal.EventAnswer, Answer: &a}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := legacy.Append(incremental.ResolveEvent(state.Round, state.ResolvedUpTo, state.Clusters)); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Config{Shards: 2, Engine: incremental.Config{Seed: 5}}, tree); err == nil {
		t.Fatal("re-sharding a legacy journal must be refused")
	}

	g, err := Open(Config{Shards: 1, Engine: incremental.Config{Seed: 5}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if snap.Records != 6 || snap.Round != 1 {
		t.Fatalf("adopted legacy journal as %+v", snap)
	}
	if fmt.Sprint(snap.Clusters) != fmt.Sprint(want) {
		t.Fatalf("adopted clustering %v, engine had %v", snap.Clusters, want)
	}
	ids, err := g.Add(recs[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 6 {
		t.Fatalf("legacy adoption broke gid assignment: %v", ids)
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	digest := snapDigest(t, g)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2, err := Open(Config{Shards: 1, Engine: incremental.Config{Seed: 5}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if got := snapDigest(t, g2); got != digest {
		t.Fatalf("legacy-adopted directory did not reopen identically:\n got %s\nwant %s", got, digest)
	}
}
