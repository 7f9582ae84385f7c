package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/refine"
	"acd/internal/serve"
	"acd/internal/shard"
)

// fsStats is what the timing wrapper around journal.Tree measured.
type fsStats struct {
	mu         sync.Mutex
	syncs      int64
	syncDirs   int64
	syncNS     int64 // file syncs and directory syncs
	writeNS    int64
	bytes      int64
	snapBytes  int64 // bytes written to snap-* files
	snapNS     int64 // writes and syncs on snap-* files
	walReadEvs int64 // newline-terminated WAL lines handed to recovery
}

func (s *fsStats) busy() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.syncNS + s.writeNS)
}

// reset zeroes the counts; set-up traffic is discarded this way.
func (s *fsStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs, s.syncDirs, s.syncNS, s.writeNS = 0, 0, 0, 0
	s.bytes, s.snapBytes, s.snapNS, s.walReadEvs = 0, 0, 0, 0
}

func (s *fsStats) counts() (syncs, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs, s.bytes
}

// timedTree wraps a journal.Tree — a seam the journal already has — so
// every write and fsync below the shard layer is counted and timed.
type timedTree struct {
	inner journal.Tree
	st    *fsStats
	tr    *tracer
}

func (t timedTree) Root() journal.FS { return timedFS{inner: t.inner.Root(), tree: t} }

func (t timedTree) Sub(name string) (journal.FS, error) {
	f, err := t.inner.Sub(name)
	if err != nil {
		return nil, err
	}
	return timedFS{inner: f, tree: t, dir: name}, nil
}

type timedFS struct {
	inner journal.FS
	tree  timedTree
	dir   string
}

func (f timedFS) Create(name string) (journal.File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{inner: inner, fs: f, snap: strings.HasPrefix(name, "snap-")}, nil
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	data, err := f.inner.ReadFile(name)
	if err == nil && strings.HasPrefix(name, "wal-") {
		f.tree.st.mu.Lock()
		f.tree.st.walReadEvs += int64(bytes.Count(data, []byte{'\n'}))
		f.tree.st.mu.Unlock()
	}
	return data, err
}

func (f timedFS) List() ([]string, error)              { return f.inner.List() }
func (f timedFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }
func (f timedFS) Remove(name string) error             { return f.inner.Remove(name) }

func (f timedFS) SyncDir() error {
	start := time.Now()
	err := f.inner.SyncDir()
	d := time.Since(start)
	st := f.tree.st
	st.mu.Lock()
	st.syncDirs++
	st.syncNS += d.Nanoseconds()
	st.mu.Unlock()
	f.tree.tr.add(span{Rung: "shard", Layer: "journal", Name: "syncdir " + f.dir}, start, d)
	return err
}

type timedFile struct {
	inner journal.File
	fs    timedFS
	snap  bool
}

func (f *timedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.inner.Write(b)
	d := time.Since(start)
	st := f.fs.tree.st
	st.mu.Lock()
	st.writeNS += d.Nanoseconds()
	st.bytes += int64(n)
	if f.snap {
		st.snapBytes += int64(n)
		st.snapNS += d.Nanoseconds()
	}
	st.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	d := time.Since(start)
	st := f.fs.tree.st
	st.mu.Lock()
	st.syncs++
	st.syncNS += d.Nanoseconds()
	if f.snap {
		st.snapNS += d.Nanoseconds()
	}
	st.mu.Unlock()
	f.fs.tree.tr.add(span{Rung: "shard", Layer: "journal", Name: "sync " + f.fs.dir}, start, d)
	return err
}

func (f *timedFile) Close() error { return f.inner.Close() }

// serveConfig is the serve.Config acdserve builds from spec's flags;
// engineConfig and shardConfig are what serve.Open derives from it for
// the layers below. The three must stay in step with cmd/acdserve and
// serve.Open, or the rungs measure a different system than the child
// process runs.
func (spec servingSpec) serveConfig(dir string, rec *obs.Recorder) serve.Config {
	return serve.Config{
		Journal: dir,
		Shards:  spec.shards,
		Tau:     pruning.DefaultTau, TauSet: true,
		Epsilon: core.DefaultEpsilon, RefineX: refine.DefaultX,
		Seed:            1,
		CheckpointEvery: 256,
		CommitWindow:    spec.commitWindow,
		RotateBytes:     serve.DefaultRotateBytes,
		Obs:             rec,
	}
}

func (spec servingSpec) engineConfig(rec *obs.Recorder) incremental.Config {
	c := spec.serveConfig("", rec)
	return incremental.Config{
		Tau: c.Tau, TauSet: c.TauSet, Epsilon: c.Epsilon, RefineX: c.RefineX,
		Seed: c.Seed, Obs: rec, CheckpointEvery: c.CheckpointEvery,
		Commit:      journal.GroupPolicy{Window: c.CommitWindow},
		RotateBytes: c.RotateBytes,
	}
}

func (spec servingSpec) shardConfig(rec *obs.Recorder) shard.Config {
	return shard.Config{Shards: spec.shards, Engine: spec.engineConfig(rec)}
}

// replay preloads (untimed), calls afterPreload — where a rung discards
// what set-up did to its counters — and then drives the measured phase
// against one rung's target.
func replay(rung string, t target, pl *plan, tr *tracer, afterPreload func()) (*phase, error) {
	ids := newIDMap(len(pl.pool))
	if len(pl.preload) > 0 {
		if pre := drive("preload", t, pl, [][]op{pl.preload}, ids, nil); pre.failed > 0 {
			return nil, fmt.Errorf("rung %s preload: %w", rung, pre.firstErr)
		}
	}
	if afterPreload != nil {
		afterPreload()
	}
	ph := drive(rung, t, pl, pl.clients, ids, tr)
	if ph.failed > 0 {
		return nil, fmt.Errorf("rung %s: %d of %d ops failed; first: %w", rung, ph.failed, ph.attempted, ph.firstErr)
	}
	return ph, nil
}

// meteredTarget attributes journal traffic to the op kind that caused
// it: fsyncs and bytes are read before and after every call. With two
// clients a sync that lands while both have a call open is counted for
// both, so the per-kind figures are exact on one client and an upper
// bound on two.
type meteredTarget struct {
	groupTarget
	st     *fsStats
	mu     sync.Mutex
	fsyncs [numOpKinds]int64
	bytes  [numOpKinds]int64
	calls  [numOpKinds]int64
}

func (t *meteredTarget) meter(k opKind, call func()) {
	s0, b0 := t.st.counts()
	call()
	s1, b1 := t.st.counts()
	t.mu.Lock()
	t.fsyncs[k] += s1 - s0
	t.bytes[k] += b1 - b0
	t.calls[k]++
	t.mu.Unlock()
}

func (t *meteredTarget) records(recs []payload) (ids []int, err error) {
	t.meter(opRecords, func() { ids, err = t.groupTarget.records(recs) })
	return ids, err
}

func (t *meteredTarget) answers(as []answer) (accepted, known int, err error) {
	t.meter(opAnswers, func() { accepted, known, err = t.groupTarget.answers(as) })
	return accepted, known, err
}

func (t *meteredTarget) resolve() (out incremental.ResolveStats, err error) {
	t.meter(opResolve, func() { out, err = t.groupTarget.resolve() })
	return out, err
}

// traceServing replays a serving workload's measured phase down the
// ladder — serve handler, shard group over a timed journal tree, bare
// incremental engine — and books the per-layer metrics. e2e is the
// child-process run of the same plan that preceded it.
func traceServing(e *env, spec servingSpec, pl *plan, e2e *phase, res *result) error {
	m := res.Metrics
	records := float64(e2e.ackedRecords)

	// Rung serve: the HTTP handler called directly, journaled.
	serveDir, err := os.MkdirTemp(e.workDir, spec.name+"-rung-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(serveDir)
	srv, err := serve.Open(spec.serveConfig(serveDir, obs.New()))
	if err != nil {
		return fmt.Errorf("rung serve: %w", err)
	}
	serveRun, err := replay("serve", newHandlerTarget(srv.Handler()), pl, e.tr, nil)
	cerr := srv.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("rung serve: closing: %w", cerr)
	}

	// Rung shard: the group driven directly over a timed journal tree.
	shardDir, err := os.MkdirTemp(e.workDir, spec.name+"-rung-shard-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(shardDir)
	dirTree, err := journal.NewDirTree(shardDir)
	if err != nil {
		return err
	}
	st := &fsStats{}
	rec := obs.New()
	group, err := shard.Open(spec.shardConfig(rec), timedTree{inner: dirTree, st: st, tr: e.tr})
	if err != nil {
		return fmt.Errorf("rung shard: %w", err)
	}
	gt := &meteredTarget{groupTarget: groupTarget{g: group}, st: st}
	// The preload's journal traffic and recorder counts are set-up, not
	// the measured phase: clear the one, remember the other.
	var preCounters map[string]int64
	shardRun, err := replay("shard", gt, pl, e.tr, func() {
		st.reset()
		gt.fsyncs, gt.bytes, gt.calls = [numOpKinds]int64{}, [numOpKinds]int64{}, [numOpKinds]int64{}
		preCounters = rec.Snapshot().Counters
	})
	snap := group.Snapshot()
	cerr = group.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("rung shard: closing: %w", cerr)
	}

	// Recovery: reopen the finished tree in-process, as a restart would.
	recSt := &fsStats{}
	start := time.Now()
	reopened, err := shard.Open(spec.shardConfig(nil), timedTree{inner: dirTree, st: recSt})
	recoverTime := time.Since(start)
	if err != nil {
		return fmt.Errorf("rung shard: recovery: %w", err)
	}
	recovered := reopened.Snapshot().Records
	if err := reopened.Close(); err != nil {
		return fmt.Errorf("rung shard: closing recovered group: %w", err)
	}
	res.check("rung-recovery", recovered == snap.Records, "recovered %d records, group held %d", recovered, snap.Records)
	e.tr.add(span{Rung: "shard", Layer: "journal", Name: "recover"}, start, recoverTime)
	diskBytes, err := treeBytes(shardDir)
	if err != nil {
		return err
	}

	// Rung incremental: one engine, no journal.
	engRun, err := replay("incremental", &engineTarget{e: incremental.New(spec.engineConfig(obs.New()))}, pl, e.tr, nil)
	if err != nil {
		return err
	}

	// The rungs replay one op sequence: their exact counts must agree.
	res.check("rungs-equivalent",
		serveRun.ackedRecords == e2e.ackedRecords && shardRun.ackedRecords == e2e.ackedRecords && engRun.ackedRecords == e2e.ackedRecords,
		"acked records: e2e %d, serve %d, shard %d, incremental %d",
		e2e.ackedRecords, serveRun.ackedRecords, shardRun.ackedRecords, engRun.ackedRecords)

	wall := e2e.wall.Seconds()
	fsBusy := st.busy().Seconds()
	self := map[string]float64{
		"http.self_s":        wall - serveRun.wall.Seconds(),
		"serve.self_s":       serveRun.wall.Seconds() - shardRun.wall.Seconds(),
		"shard.self_s":       shardRun.wall.Seconds() - engRun.wall.Seconds() - fsBusy,
		"incremental.self_s": engRun.wall.Seconds(),
	}
	for name, v := range self {
		m[name] = v
		if v < -0.05*wall {
			res.Unresolved = append(res.Unresolved, name)
		}
	}
	sort.Strings(res.Unresolved)

	for k := opKind(0); k < numOpKinds; k++ {
		m["serve.handler_s."+k.String()] = sum(serveRun.latMS[k]) / 1e3
	}
	m["serve.response_bytes.clusters"] = ratio(float64(serveRun.clusterBytes), float64(len(serveRun.latMS[opClusters])))
	m["serve.cpu_s"] = m["server_cpu_s"]

	m["shard.add_s"] = sum(shardRun.latMS[opRecords]) / 1e3
	m["shard.add_answer_s"] = sum(shardRun.latMS[opAnswers]) / 1e3
	m["shard.resolve_s"] = sum(shardRun.latMS[opResolve]) / 1e3
	m["shard.snapshot_s"] = sum(shardRun.latMS[opClusters]) / 1e3
	m["shard.add_growth"] = growth(shardRun.adds)
	perShard := 0
	for _, s := range snap.PerShard {
		perShard += s.Answers
	}
	m["shard.cross_shard_answers"] = float64(snap.Answers - perShard)

	m["incremental.add_s"] = sum(engRun.latMS[opRecords]) / 1e3
	m["incremental.add_growth"] = growth(engRun.adds)
	m["incremental.resolve_s"] = sum(engRun.latMS[opResolve]) / 1e3
	c := rec.Snapshot().Counters
	for k, v := range preCounters {
		c[k] -= v
	}
	var asked int
	for _, r := range shardRun.resolves {
		asked += r.QuestionsAsked
	}
	m["incremental.questions_asked"] = float64(asked)
	m["incremental.residual_pairs"] = float64(c[incremental.MetricResidualPairs])
	m["incremental.inferred_positive"] = float64(c[incremental.MetricInferredPositive])
	m["incremental.inferred_negative"] = float64(c[incremental.MetricInferredNegative])
	m["incremental.closure_edges"] = float64(c[incremental.MetricClosureEdges])
	m["incremental.checkpoints"] = float64(c[incremental.MetricCheckpoints])
	m["incremental.journal_events"] = float64(c[incremental.MetricJournalEvents])
	m["incremental.pending_pairs_final"] = float64(snap.PendingPairs)

	m["journal.sync_s"] = float64(st.syncNS) / 1e9
	m["journal.write_s"] = float64(st.writeNS) / 1e9
	m["journal.fsyncs"] = float64(st.syncs)
	m["journal.syncdirs"] = float64(st.syncDirs)
	m["journal.bytes_written"] = float64(st.bytes)
	m["journal.checkpoint_bytes"] = float64(st.snapBytes)
	m["journal.checkpoint_s"] = float64(st.snapNS) / 1e9
	// A phase that posts no answers, resolves nothing or commits per
	// event has none of the matching traffic: those ratios are 0.
	m["journal.fsyncs_per_record"] = ratio(float64(gt.fsyncs[opRecords]), records)
	m["journal.bytes_per_record"] = ratio(float64(gt.bytes[opRecords]), records)
	m["journal.disk_bytes_per_record"] = ratio(float64(diskBytes), float64(snap.Records))
	m["journal.fsyncs_per_answer"] = ratio(float64(gt.fsyncs[opAnswers]), float64(e2e.postedAnswers))
	m["journal.resolve_bytes"] = ratio(float64(gt.bytes[opResolve]), float64(gt.calls[opResolve]))
	m["journal.group_commits"] = float64(c[journal.MetricGroupCommits])
	m["journal.events_per_group"] = ratio(float64(c[journal.MetricGroupedEvents]), float64(c[journal.MetricGroupCommits]))
	m["journal.segments_rotated"] = float64(c[journal.MetricSegmentsRotated])
	m["journal.recover_s"] = recoverTime.Seconds()
	m["journal.recover_events"] = float64(recSt.walReadEvs)

	// The pipeline layers under resolve are visible here as exact
	// counts only; their time shows on batch-dedup.
	counters := make(map[string]int64, len(c))
	for k, v := range c {
		counters[k] = v
	}
	fillPipelineCounters(m, counters)
	m["crowd.batches"] = float64(c[crowd.MetricIterations])
	m["crowd.pairs"] = float64(c[crowd.MetricQuestionsAnswered])
	return nil
}

// ratio is num ÷ den, and 0 where there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// growth is the mean per-record add time over the last tenth of the
// records divided by that over the first tenth: 1 means ingest cost is
// flat in the size of the state.
func growth(adds []addSample) float64 {
	if len(adds) < 20 {
		return 0
	}
	s := append([]addSample(nil), adds...)
	sort.Slice(s, func(i, j int) bool { return s[i].pos < s[j].pos })
	tenth := len(s) / 10
	mean := func(xs []addSample) float64 {
		t := 0.0
		for _, x := range xs {
			t += x.perRecordNS
		}
		return t / float64(len(xs))
	}
	first, last := mean(s[:tenth]), mean(s[len(s)-tenth:])
	if first == 0 {
		return 0
	}
	return last / first
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
