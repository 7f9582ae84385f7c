package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
)

// engineDigest serializes one engine's full state.
func engineDigest(t *testing.T, e *incremental.Engine) string {
	t.Helper()
	b, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFoldEquivalence is the property the one-fold structure exists
// for: after a random history of adds, answers, resolves and
// checkpoints, the live group, a group reopened from its journals and a
// Standby fed those journals' tails hold the same state — the same
// published snapshot and byte-identical engine checkpoints shard by
// shard.
func TestFoldEquivalence(t *testing.T) {
	for _, n := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			n, seed := n, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				cfg := Config{Shards: n, Engine: incremental.Config{Seed: seed, CheckpointEvery: 9, RotateBytes: 900}}
				tree := journal.NewMemTree()
				g, err := Open(cfg, tree)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				sources := []string{"", "crowd", "client"}
				var acked []int
				for op := 0; op < 70; op++ {
					switch roll := rng.Float64(); {
					case roll < 0.55 || len(acked) < 2:
						recs := make([]incremental.Record, 1+rng.Intn(3))
						for i := range recs {
							recs[i] = synthRecord(rng, len(acked)+i)
						}
						ids, err := g.Add(recs...)
						if err != nil {
							t.Fatal(err)
						}
						acked = append(acked, ids...)
					case roll < 0.85:
						lo, hi := acked[rng.Intn(len(acked))], acked[rng.Intn(len(acked))]
						if lo == hi {
							continue
						}
						if lo > hi {
							lo, hi = hi, lo
						}
						if err := g.AddAnswer(lo, hi, float64(rng.Intn(2)), sources[rng.Intn(len(sources))]); err != nil {
							t.Fatal(err)
						}
					case roll < 0.95:
						if _, err := g.Resolve(context.Background()); err != nil {
							t.Fatal(err)
						}
					default:
						if err := g.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				live := g.Snapshot()
				liveEngines := make([]string, n)
				for i, e := range g.st.engines {
					liveEngines[i] = engineDigest(t, e)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}

				reopened, err := Open(cfg, tree.CrashCopy())
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				if got, want := snapDigest(t, reopened), mustJSON(t, live); got != want {
					t.Errorf("reopened snapshot differs from live:\n got %s\nwant %s", got, want)
				}

				standby, err := NewStandby(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range journalDirs(n) {
					tb, err := journal.ReadTail(tree.Dir(name), 1, 0, 0)
					if err != nil {
						t.Fatalf("tail of %s: %v", name, err)
					}
					if tb.Checkpoint != nil {
						if err := standby.ApplyCheckpoint(name, tb.Checkpoint); err != nil {
							t.Fatal(err)
						}
					}
					for _, ev := range tb.Events {
						if err := standby.Apply(name, ev); err != nil {
							t.Fatal(err)
						}
					}
				}
				// A standby keeps no probe index, so its pending count
				// lacks the live group's cross-shard handoff pairs.
				want := *live
				want.PendingPairs = 0
				for _, ps := range want.PerShard {
					want.PendingPairs += ps.PendingPairs
				}
				if got := standby.Snapshot(); !reflect.DeepEqual(*got, want) {
					t.Errorf("standby snapshot differs from live:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, &want))
				}

				for i := 0; i < n; i++ {
					if got := engineDigest(t, reopened.st.engines[i]); got != liveEngines[i] {
						t.Errorf("shard %d: reopened engine differs from live:\n got %s\nwant %s", i, got, liveEngines[i])
					}
					if got := engineDigest(t, standby.Engine(i)); got != liveEngines[i] {
						t.Errorf("shard %d: standby engine differs from live:\n got %s\nwant %s", i, got, liveEngines[i])
					}
				}
			})
		}
	}
}

func mustJSON(t *testing.T, s *Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// answerProvenance runs a fixed history whose client answers all name
// source — some land in a shard's journal, some (with more than one
// shard) at the router — checkpoints, and returns the multiset of
// provenance labels the checkpoints hold, how many of the answers the
// router's holds, and the closed tree.
func answerProvenance(t *testing.T, shards int, source string) (labels map[string]int, atRouter int, tree *journal.MemTree) {
	t.Helper()
	tree = journal.NewMemTree()
	g, err := Open(Config{Shards: shards, Engine: incremental.Config{Seed: 5}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(crashRecords()[:12]...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := g.AddAnswer(i, i+4, float64(i%2), source); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	labels = make(map[string]int)
	for _, d := range journalDirs(shards) {
		fs := tree.Dir(d)
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !strings.HasPrefix(n, "snap-") {
				continue
			}
			var cp journal.Checkpoint
			if err := json.Unmarshal(fs.Bytes(n), &cp); err != nil {
				t.Fatal(err)
			}
			for _, a := range cp.Answers {
				labels[a.Source]++
				if d == journal.RouterDir {
					atRouter++
				}
			}
		}
	}
	return labels, atRouter, tree
}

// TestAnswerSourceNormalizedEverywhere: "crowd" is the default source
// and is journaled as the omitted default wherever the pair is homed,
// so the same client answers leave the same provenance at any shard
// count — and, at three shards, the same bytes as naming no source.
func TestAnswerSourceNormalizedEverywhere(t *testing.T) {
	one, _, _ := answerProvenance(t, 1, "crowd")
	three, atRouter, treeCrowd := answerProvenance(t, 3, "crowd")
	if atRouter == 0 || atRouter == 8 {
		t.Fatalf("fixture too weak: %d of 8 answers are cross-shard", atRouter)
	}
	if !reflect.DeepEqual(one, map[string]int{"": 8}) {
		t.Errorf("1 shard provenance %v, want 8 default-source answers", one)
	}
	if !reflect.DeepEqual(three, one) {
		t.Errorf("3 shards provenance %v, 1 shard %v", three, one)
	}
	_, _, treeBare := answerProvenance(t, 3, "")
	if got, want := hashTree(t, treeCrowd, 3), hashTree(t, treeBare, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("source \"crowd\" and source \"\" journal different bytes:\n got %v\nwant %v", got, want)
	}
}

// TestAutoCheckpointFailureKeepsMutationsAcked: an automatic-checkpoint
// failure must not fail the mutation that triggered it — the event's
// append and apply already succeeded, and the caller must see it acked.
// The failure lands in the log's sticky error and a counter instead,
// and the next eligible event retries the checkpoint. One row per kind
// of log: a shard's (the trigger is a record) and the router's (the
// trigger is a resolve).
func TestAutoCheckpointFailureKeepsMutationsAcked(t *testing.T) {
	recs := crashRecords()
	ctx := context.Background()
	for _, row := range []struct {
		name    string
		shards  int
		dir     string
		log     func(g *Group) *log
		prepare func(t *testing.T, g *Group) // leaves the log one event short of its cadence
		trigger func(g *Group) error         // the event whose checkpoint fails
		retry   func(g *Group) error         // the next eligible event
	}{
		{
			name: "shard journal", shards: 1, dir: journal.ShardDirName(0),
			log: func(g *Group) *log { return g.shards[0].log },
			prepare: func(t *testing.T, g *Group) {
				if _, err := g.Add(recs[0]); err != nil {
					t.Fatal(err)
				}
			},
			trigger: func(g *Group) error {
				ids, err := g.Add(recs[1])
				if err == nil && !reflect.DeepEqual(ids, []int{1}) {
					err = fmt.Errorf("ids = %v, want [1]", ids)
				}
				return err
			},
			retry: func(g *Group) error { _, err := g.Add(recs[2]); return err },
		},
		{
			name: "router journal", shards: 3, dir: journal.RouterDir,
			log: func(g *Group) *log { return g.router },
			prepare: func(t *testing.T, g *Group) {
				if _, err := g.Add(recs[:6]...); err != nil {
					t.Fatal(err)
				}
				if _, err := g.Resolve(ctx); err != nil {
					t.Fatal(err)
				}
			},
			trigger: func(g *Group) error {
				st, err := g.Resolve(ctx)
				if err == nil && (st.Round != 2 || g.Snapshot().Round != 2) {
					err = fmt.Errorf("resolve reported round %d, snapshot %d, want 2", st.Round, g.Snapshot().Round)
				}
				return err
			},
			retry: func(g *Group) error { _, err := g.Resolve(ctx); return err },
		},
	} {
		row := row
		t.Run(row.name, func(t *testing.T) {
			tree := journal.NewMemTree()
			rec := obs.New()
			g, err := Open(Config{Shards: row.shards, Engine: incremental.Config{Seed: 1, CheckpointEvery: 2, Obs: rec}}, tree)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			row.prepare(t, g)
			before := rec.Counter(incremental.MetricCheckpoints)
			// The next write to this journal (the trigger's WAL append)
			// succeeds; the one after it (the checkpoint's tmp file)
			// fails.
			tree.Dir(row.dir).FailAfterWrites(1)
			if err := row.trigger(g); err != nil {
				t.Fatalf("the auto-checkpoint failure surfaced as the mutation's error: %v", err)
			}
			if row.log(g).cpErr == nil {
				t.Error("auto-checkpoint failure vanished: the log's sticky error is nil")
			}
			if got := rec.Counter(incremental.MetricCheckpointErrors); got != 1 {
				t.Errorf("checkpoint_errors = %d, want 1", got)
			}
			// The group keeps accepting mutations; the retried
			// checkpoint succeeds and clears the sticky error.
			if err := row.retry(g); err != nil {
				t.Fatalf("mutation after auto-checkpoint failure: %v", err)
			}
			if err := row.log(g).cpErr; err != nil {
				t.Errorf("sticky error survived a successful checkpoint: %v", err)
			}
			if got := rec.Counter(incremental.MetricCheckpoints); got <= before {
				t.Errorf("checkpoints = %d, want > %d (the retry)", got, before)
			}
		})
	}
}
