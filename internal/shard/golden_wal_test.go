package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"reflect"
	"strings"
	"testing"
	"time"

	"acd/internal/incremental"
	"acd/internal/journal"
)

var updateGoldenWAL = flag.Bool("update-golden-wal", false, "rewrite testdata/golden_wal.json from this run")

const goldenWALFile = "testdata/golden_wal.json"

// goldenWALConfigs are the layouts the golden pins: one and three
// shards, per-event fsync and a commit window, always with a rotation
// size small enough to rotate and a checkpoint cadence short enough to
// fire on its own. The window is long next to an in-memory apply, so a
// queued event's automatic checkpoint always lands before its group
// syncs and the set of files left behind is the same on every run.
func goldenWALConfigs() []Config {
	var out []Config
	for _, n := range []int{1, 3} {
		for _, window := range []time.Duration{0, 20 * time.Millisecond} {
			out = append(out, Config{Shards: n, Engine: incremental.Config{
				Seed:            5,
				CheckpointEvery: 7,
				RotateBytes:     700,
				Commit:          journal.GroupPolicy{Window: window},
			}})
		}
	}
	return out
}

// goldenWALHistory drives one fixed sequential history — a resolve over
// the empty group, adds, same- and cross-shard client answers with no
// source and with a non-default one, resolves that buy machine-fallback
// answers, automatic checkpoints and an explicit one, a reopen — and
// returns every distinct content each file in the tree went through,
// observed after each step (so bytes a later checkpoint compacts away
// are pinned too). Every step is one event at a time, so the bytes do
// not depend on how a commit window groups them. Beside the files it
// reports, per journal directory under "<dir>/events", the hash of every
// byte written to that journal's WAL in write order — the event stream
// in seq order, whatever segments it was cut into.
func goldenWALHistory(t *testing.T, cfg Config) map[string][]string {
	t.Helper()
	mem := journal.NewMemTree()
	tree := &walTeeTree{MemTree: mem, streams: make(map[string]*bytes.Buffer)}
	seen := make(map[string][]string)
	observe := func() {
		t.Helper()
		for f, h := range hashTree(t, mem, cfg.Shards) {
			if v := seen[f]; len(v) == 0 || v[len(v)-1] != h {
				seen[f] = append(v, h)
			}
		}
	}
	// homes counts accepted client answers by where they were cached
	// (a shard's engine or the router) and whether they named a source.
	homes := make(map[string]int)
	recs := crashRecords()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(g *Group, rs []incremental.Record) {
		t.Helper()
		for _, r := range rs {
			_, err := g.Add(r)
			must(err)
			observe()
		}
	}
	resolve := func(g *Group) {
		t.Helper()
		_, err := g.Resolve(ctx)
		must(err)
		observe()
	}
	crossAnswers := func(g *Group) int {
		snap := g.Snapshot()
		n := snap.Answers
		for _, st := range snap.PerShard {
			n -= st.Answers
		}
		return n
	}
	answer := func(g *Group, lo, hi int, fc float64, source string) {
		t.Helper()
		before := crossAnswers(g)
		must(g.AddAnswer(lo, hi, fc, source))
		home := "shard"
		if crossAnswers(g) > before {
			home = "router"
		}
		homes[home+"/"+source]++
		observe()
	}

	g, err := Open(cfg, tree)
	must(err)
	resolve(g)
	add(g, recs[:12])
	for i := 0; i < 8; i++ {
		source := ""
		if i%4 >= 2 {
			source = "client"
		}
		answer(g, i, i+4, float64(i%2), source)
	}
	// A repeated answer is a no-op and must journal nothing.
	must(g.AddAnswer(0, 4, 1, "client"))
	resolve(g)
	add(g, recs[12:16])
	answer(g, 3, 13, 1, "")
	answer(g, 5, 14, 0, "client")
	resolve(g)
	must(g.Checkpoint())
	observe()
	add(g, recs[16:17])
	must(g.Close())
	observe()

	g, err = Open(cfg, tree)
	must(err)
	observe()
	add(g, recs[17:])
	answer(g, 2, 17, 0, "client")
	resolve(g)
	must(g.Close())
	observe()
	goldenWALCoverage(t, seen, cfg.Shards)
	for d, stream := range tree.streams {
		if stream.Len() == 0 {
			continue // a 1-shard layout opens the router directory and writes nothing
		}
		sum := sha256.Sum256(stream.Bytes())
		seen[path.Join(d, "events")] = []string{hex.EncodeToString(sum[:])}
	}

	want := []string{"shard/", "shard/client"}
	if cfg.Shards > 1 {
		want = append(want, "router/", "router/client")
	}
	for _, k := range want {
		if homes[k] == 0 {
			t.Errorf("history too weak: no client answer of kind %q (have %v)", k, homes)
		}
	}
	return seen
}

// walTeeTree is a MemTree that also keeps, per journal directory, every
// byte written to a WAL segment in write order. Writes happen under the
// journal's own serialization, so the copy needs no lock.
type walTeeTree struct {
	*journal.MemTree
	streams map[string]*bytes.Buffer
}

func (t *walTeeTree) Sub(name string) (journal.FS, error) {
	if t.streams[name] == nil {
		t.streams[name] = new(bytes.Buffer)
	}
	return walTeeFS{MemFS: t.MemTree.Dir(name), stream: t.streams[name]}, nil
}

type walTeeFS struct {
	*journal.MemFS
	stream *bytes.Buffer
}

func (f walTeeFS) Create(name string) (journal.File, error) {
	file, err := f.MemFS.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return file, err
	}
	return walTeeFile{File: file, stream: f.stream}, nil
}

type walTeeFile struct {
	journal.File
	stream *bytes.Buffer
}

func (f walTeeFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.stream.Write(p[:n])
	return n, err
}

// journalDirs lists a layout's journal directories: the router's, then
// each shard's.
func journalDirs(shards int) []string {
	dirs := []string{journal.RouterDir}
	for s := 0; s < shards; s++ {
		dirs = append(dirs, journal.ShardDirName(s))
	}
	return dirs
}

// hashTree maps every file in the tree to the sha256 of its synced
// bytes.
func hashTree(t *testing.T, tree *journal.MemTree, shards int) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, d := range append([]string{""}, journalDirs(shards)...) {
		names, err := tree.Dir(d).List()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			sum := sha256.Sum256(tree.Dir(d).Bytes(n))
			out[path.Join(d, n)] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

// goldenWALCoverage fails when the history stops leaving what the
// golden exists to pin: checkpoints in every journal the layout keeps,
// and rotated segments in the shard journals (the router's never
// rotates).
func goldenWALCoverage(t *testing.T, seen map[string][]string, shards int) {
	t.Helper()
	dirs := journalDirs(shards)
	if shards == 1 {
		dirs = dirs[1:] // a 1-shard layout keeps no router journal
	}
	for _, d := range dirs {
		snaps, segs := 0, 0
		for f := range seen {
			switch {
			case strings.HasPrefix(f, d+"/snap-"):
				snaps++
			case strings.HasPrefix(f, d+"/wal-"):
				segs++
			}
		}
		if snaps == 0 || (d != journal.RouterDir && segs < 3) {
			t.Errorf("history too weak: %s saw %d checkpoints and %d segments", d, snaps, segs)
		}
	}
}

// TestGoldenWAL pins the bytes the serving stack writes: every content
// every file in the journal tree goes through over a fixed history must
// hash to what testdata/golden_wal.json records for its shard count
// (one and three), both with and without a commit window — group commit
// moves fsyncs, never bytes. Regenerate with
//
//	go test ./internal/shard -run TestGoldenWAL -update-golden-wal
//
// only for a deliberate format change.
func TestGoldenWAL(t *testing.T) {
	got := make(map[string]map[string][]string)
	for _, cfg := range goldenWALConfigs() {
		key := fmt.Sprintf("shards=%d", cfg.Shards)
		seen := goldenWALHistory(t, cfg)
		if prev, ok := got[key]; ok && !reflect.DeepEqual(prev, seen) {
			t.Errorf("%s: bytes differ with and without a commit window", key)
		}
		got[key] = seen
	}
	if *updateGoldenWAL {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWALFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenWALFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden holds %d layouts, run produced %d", len(want), len(got))
	}
	for key, files := range want {
		for f, h := range files {
			if !reflect.DeepEqual(got[key][f], h) {
				t.Errorf("%s: %s went through contents %.8s, golden %.8s", key, f, got[key][f], h)
			}
		}
		for f := range got[key] {
			if _, ok := files[f]; !ok {
				t.Errorf("%s: unexpected file %s", key, f)
			}
		}
	}
}
