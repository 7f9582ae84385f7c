package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/record"
)

// fsyncs reads every journal directory's file-fsync count.
func fsyncs(tree *journal.MemTree, shards int) map[string]int {
	out := make(map[string]int)
	for _, d := range journalDirs(shards) {
		out[d] = tree.Dir(d).Syncs()
	}
	return out
}

// wantFsyncs fails unless each journal directory issued exactly want[dir]
// fsyncs since before (absent = none).
func wantFsyncs(t *testing.T, what string, tree *journal.MemTree, shards int, before, want map[string]int) {
	t.Helper()
	for d, now := range fsyncs(tree, shards) {
		if got := now - before[d]; got != want[d] {
			t.Errorf("%s: %s issued %d fsyncs, want %d", what, d, got, want[d])
		}
	}
}

// answerHomes splits the pairs over the first n records into same-shard
// ones, keyed by home directory, and cross-shard ones.
func answerHomes(g *Group, n int) (same map[string][]Answer, cross []Answer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	same = make(map[string][]Answer)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			a := Answer{Lo: lo, Hi: hi, FC: float64((lo + hi) % 2), Source: "client"}
			if sid, _, ok := g.st.sameShard(record.MakePair(record.ID(lo), record.ID(hi))); ok {
				d := journal.ShardDirName(sid)
				same[d] = append(same[d], a)
			} else {
				cross = append(cross, a)
			}
		}
	}
	return same, cross
}

// batchLog is a crowd that records the batches it is asked — one per
// crowd iteration — and answers from the records' entity labels.
type batchLog struct {
	entity  []string
	batches [][]record.Pair
}

func (b *batchLog) Score(p record.Pair) float64 { return b.ScoreBatch([]record.Pair{p})[0] }

func (b *batchLog) ScoreBatch(pairs []record.Pair) []float64 {
	b.batches = append(b.batches, append([]record.Pair(nil), pairs...))
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		if b.entity[p.Lo] == b.entity[p.Hi] {
			out[i] = 1
		}
	}
	return out
}

func (b *batchLog) Config() crowd.Config { return crowd.ThreeWorker(0) }

// TestOneCommitPerRequest pins the unit of durability: with no commit
// window every journal a request touches is fsynced once for that
// request — one Add of 8 records, one AddAnswers of 4 — and a resolve
// commits each crowd iteration's answers once per journal they touch,
// plus its own resolve events.
func TestOneCommitPerRequest(t *testing.T) {
	// Enough records that the resolve needs several crowd iterations.
	var recs []incremental.Record
	for _, r := range dataset.Restaurant(1).Records[:120] {
		recs = append(recs, incremental.Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)})
	}
	for _, shards := range []int{1, 3} {
		crowdLog := &batchLog{}
		for _, r := range recs {
			crowdLog.entity = append(crowdLog.entity, r.Entity)
		}
		tree := journal.NewMemTree()
		g, err := Open(Config{Shards: shards, Engine: incremental.Config{Seed: 5, Source: crowdLog}}, tree)
		if err != nil {
			t.Fatal(err)
		}

		// One Add of 8 records: one fsync per shard that got any of them.
		before := fsyncs(tree, shards)
		if _, err := g.Add(recs[:8]...); err != nil {
			t.Fatal(err)
		}
		want := make(map[string]int)
		for s, st := range g.Snapshot().PerShard {
			if st.Records > 0 {
				want[journal.ShardDirName(s)] = 1
			}
		}
		if shards > 1 && len(want) < 2 {
			t.Fatalf("fixture too weak: 8 records landed on %d of %d shards", len(want), shards)
		}
		wantFsyncs(t, "Add of 8", tree, shards, before, want)
		if _, err := g.Add(recs[8:]...); err != nil {
			t.Fatal(err)
		}

		// One AddAnswers of 4: one fsync per touched shard journal, and
		// one on the router iff a pair crosses shards.
		same, cross := answerHomes(g, 12)
		var batches [][]Answer
		for d, as := range same {
			if len(as) >= 4 {
				batches = append(batches, as[:4]) // one shard, no crossing
				same[d] = as[4:]
				break
			}
		}
		if shards > 1 {
			var mixed []Answer
			for _, as := range same {
				if len(as) > 0 && len(mixed) < 2 {
					mixed = append(mixed, as[0])
				}
			}
			if len(mixed) < 2 || len(cross) < 2 {
				t.Fatalf("fixture too weak: %d shards with same-shard pairs, %d cross pairs", len(mixed), len(cross))
			}
			batches = append(batches, append(mixed, cross[:2]...), cross[2:6])
		}
		if len(batches) == 0 {
			t.Fatal("fixture too weak: no shard holds four same-shard pairs")
		}
		for _, batch := range batches {
			want := make(map[string]int)
			g.mu.Lock()
			for _, a := range batch {
				if sid, _, ok := g.st.sameShard(record.MakePair(record.ID(a.Lo), record.ID(a.Hi))); ok {
					want[journal.ShardDirName(sid)] = 1
				} else {
					want[journal.RouterDir] = 1
				}
			}
			g.mu.Unlock()
			before := fsyncs(tree, shards)
			if n, err := g.AddAnswers(batch); err != nil || n != 4 {
				t.Fatalf("AddAnswers = (%d, %v)", n, err)
			}
			wantFsyncs(t, "AddAnswers of 4", tree, shards, before, want)
			// Every pair is known now: the same batch journals nothing.
			before = fsyncs(tree, shards)
			if n, err := g.AddAnswers(batch); err != nil || n != 4 {
				t.Fatalf("repeated AddAnswers = (%d, %v)", n, err)
			}
			wantFsyncs(t, "repeated AddAnswers", tree, shards, before, nil)
		}

		// A resolve: per crowd iteration one fsync on every journal its
		// fresh answers are homed in, then the resolve event on the
		// router journal (when there is one) and on every shard's.
		before = fsyncs(tree, shards)
		stats, err := g.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations < 2 || stats.Iterations != len(crowdLog.batches) {
			t.Fatalf("resolve ran %d iterations, crowd saw %d batches; want the same, at least 2", stats.Iterations, len(crowdLog.batches))
		}
		want = make(map[string]int)
		g.mu.Lock()
		for _, batch := range crowdLog.batches {
			touched := make(map[string]bool)
			for _, p := range batch {
				if sid, _, ok := g.st.sameShard(p); ok {
					touched[journal.ShardDirName(sid)] = true
				} else {
					touched[journal.RouterDir] = true
				}
			}
			for d := range touched {
				want[d]++
			}
		}
		g.mu.Unlock()
		for s := 0; s < shards; s++ {
			want[journal.ShardDirName(s)]++
		}
		if shards > 1 {
			want[journal.RouterDir]++
		}
		wantFsyncs(t, "Resolve", tree, shards, before, want)
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedCommitFailsEveryAck: a failed fsync fails every
// acknowledgment waiting on its group — the whole request, on that
// journal — makes none of it visible or durable, and leaves the journal
// refusing writes until the next barrier turns that into the group's
// sticky failure, as a failed flush always has.
func TestFailedCommitFailsEveryAck(t *testing.T) {
	recs := crashRecords()
	shard0 := journal.ShardDirName(0)
	tree := journal.NewMemTree()
	g, err := Open(Config{Shards: 1, Engine: incremental.Config{Seed: 5}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(recs[:4]...); err != nil {
		t.Fatal(err)
	}

	tree.Dir(shard0).FailAfterSyncs(0)
	ids, err := g.Add(recs[4:12]...)
	if err == nil || !strings.Contains(err.Error(), "injected sync failure") {
		t.Fatalf("Add over a failing fsync returned %v, want the injected sync failure", err)
	}
	if len(ids) != 0 {
		t.Errorf("Add reported %v committed out of a group whose one fsync failed", ids)
	}
	if got := g.Snapshot().Records; got != 4 {
		t.Errorf("snapshot shows %d records, want the 4 acknowledged", got)
	}
	if n, err := g.AddAnswers([]Answer{{Lo: 0, Hi: 1, FC: 1}, {Lo: 2, Hi: 3, FC: 0}}); err == nil || n != 0 {
		t.Errorf("AddAnswers on the poisoned journal = (%d, %v), want (0, error)", n, err)
	}
	if _, err := g.Resolve(context.Background()); err == nil {
		t.Error("resolve over the poisoned journal succeeded")
	}
	if _, err := g.Add(recs[12]); err == nil || !strings.Contains(err.Error(), "group failed") {
		t.Errorf("Add after the failed barrier returned %v, want the sticky group failure", err)
	}
	g.Close()

	re, err := Open(Config{Shards: 1, Engine: incremental.Config{Seed: 5}}, tree.CrashCopy())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if s := re.Snapshot(); s.Records != 4 || s.Answers != 0 {
		t.Errorf("recovered %d records and %d answers, want the 4 acknowledged records", s.Records, s.Answers)
	}
}

// TestAddAnswersPartialFailure: when one of the journals a batch touches
// fails its commit, the answers homed in the others are durable and
// counted, the failed ones are not applied, and the error names the
// first answer that was lost.
func TestAddAnswersPartialFailure(t *testing.T) {
	recs := crashRecords()
	tree := journal.NewMemTree()
	g, err := Open(crashCfg(), tree)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Add(recs[:12]...); err != nil {
		t.Fatal(err)
	}
	same, cross := answerHomes(g, 12)
	var batch []Answer
	for _, as := range same {
		batch = append(batch, as[0])
	}
	kept := len(batch)
	if kept == 0 || len(cross) < 2 {
		t.Fatalf("fixture too weak: %d same-shard homes, %d cross pairs", kept, len(cross))
	}
	batch = append(batch, cross[:2]...)

	tree.Dir(journal.RouterDir).FailAfterSyncs(0)
	n, err := g.AddAnswers(batch)
	if n != kept || err == nil || !strings.Contains(err.Error(), "injected sync failure") {
		t.Fatalf("AddAnswers = (%d, %v), want %d durable and the injected sync failure", n, err, kept)
	}
	var invalid InvalidAnswerError
	if errors.As(err, &invalid) {
		t.Errorf("a journal failure reads as a validation error: %v", err)
	}
	if want := fmt.Sprintf("answer %d:", kept); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not name the first lost answer (%q)", err, want)
	}
	if got := g.Snapshot().Answers; got != kept {
		t.Errorf("snapshot shows %d answers, want the %d durable ones", got, kept)
	}

	// An invalid answer anywhere in a batch applies none of it.
	n, err = g.AddAnswers([]Answer{same[journal.ShardDirName(0)][1], {Lo: 3, Hi: 99, FC: 1}})
	if n != 0 || !errors.As(err, &invalid) || !strings.HasPrefix(err.Error(), "answer 1:") {
		t.Errorf("AddAnswers with an invalid answer = (%d, %v), want (0, answer 1: InvalidAnswerError)", n, err)
	}
	if got := g.Snapshot().Answers; got != kept {
		t.Errorf("a rejected batch changed the answer count to %d", got)
	}
}
