package serve_test

// The drills boot real journaled servers in-process, drive them with
// concurrent clients, and check the contracts a crash, a leader failover
// and a crowd-backend outage must keep. CI runs them under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acd/internal/dataset"
	"acd/internal/journal"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/serve"
)

// ackTarget is how many records a crash or failover drill has acked
// before it pulls the plug.
const ackTarget = 150

// payload is one record as POSTed to /records.
type payload struct {
	Fields map[string]string `json:"fields"`
	Entity string            `json:"entity,omitempty"`
}

// driver posts a seeded mix of record batches, answers on acked pairs
// and snapshot reads from several goroutines, optionally resolving on a
// cadence, and counts what the server acknowledged. The counters are
// readable while it runs: a drill reads the acked floor at the instant
// it crashes the server.
type driver struct {
	target       string        // writes and resolves
	read         string        // snapshot-read target (empty = target)
	mix          [4]int        // weights: records, answers, GET /clusters, GET /metrics
	workers      int           // concurrent clients
	resolveEvery time.Duration // POST /resolve cadence (0 = never)
	resolveAfter int64         // with a cadence, also resolve once this many records were acked since the last pass

	pool   []payload
	client *http.Client
	cursor atomic.Int64 // next pool position
	since  atomic.Int64 // records acked since the last resolve
	kick   chan struct{}

	mu       sync.Mutex
	known    int64             // every id below is acked: answers draw from [0, known)
	acked    map[int64]bool    // acked ids at or above known (sharded acks arrive out of order)
	pairs    map[[2]int64]bool // distinct pairs of fully acked answer batches
	firstErr error

	issuedRecords, ackedRecords, ackedAnswers, distinctPairs atomic.Int64
	ops, errs, resolves                                      atomic.Int64
}

// newDriver builds a driver over a 300-record synthetic churn pool.
func newDriver(t *testing.T, target string, mix [4]int) *driver {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{Entities: 60, Records: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dr := &driver{
		target:  target,
		mix:     mix,
		workers: 8,
		client:  &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		kick:    make(chan struct{}, 1),
		acked:   map[int64]bool{},
		pairs:   map[[2]int64]bool{},
	}
	for _, r := range d.Records {
		dr.pool = append(dr.pool, payload{Fields: r.Fields, Entity: fmt.Sprintf("e%d", r.Entity)})
	}
	return dr
}

// run drives the server until ctx ends and returns once every request
// it started has finished.
func (d *driver) run(ctx context.Context) {
	defer d.client.CloseIdleConnections()
	var wg sync.WaitGroup
	if d.resolveEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.resolveLoop(ctx)
		}()
	}
	for w := 0; w < d.workers; w++ {
		rng := rand.New(rand.NewSource(1 + int64(w)*1_000_003))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				d.step(ctx, rng)
			}
		}()
	}
	wg.Wait()
}

// start runs the driver in the background; stop cancels it and waits
// for it to finish, and may be called more than once.
func (d *driver) start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.run(ctx)
		close(done)
	}()
	return func() {
		cancel()
		<-done
	}
}

// step issues one operation drawn from the mix. An answers draw before
// two records are acked has nothing to answer and posts records instead.
func (d *driver) step(ctx context.Context, rng *rand.Rand) {
	m := d.mix
	n := rng.Intn(m[0] + m[1] + m[2] + m[3])
	read := d.read
	if read == "" {
		read = d.target
	}
	var err error
	switch {
	case n < m[0] || (n < m[0]+m[1] && d.knownPrefix() < 2):
		err = d.postRecords(ctx)
	case n < m[0]+m[1]:
		err = d.postAnswers(ctx, rng)
	case n < m[0]+m[1]+m[2]:
		err = d.send(ctx, http.MethodGet, read+"/clusters", nil, nil)
	default:
		err = d.send(ctx, http.MethodGet, read+"/metrics", nil, nil)
	}
	d.count(ctx, err)
}

// count books one finished operation. A request cut off by the
// driver's own shutdown is not a server error.
func (d *driver) count(ctx context.Context, err error) {
	if err != nil && ctx.Err() != nil {
		return
	}
	d.ops.Add(1)
	if err != nil {
		d.errs.Add(1)
		d.mu.Lock()
		if d.firstErr == nil {
			d.firstErr = err
		}
		d.mu.Unlock()
	}
}

func (d *driver) knownPrefix() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.known
}

// postRecords POSTs the next batch of eight pool records and advances
// the contiguous acked prefix from the ids in the response.
func (d *driver) postRecords(ctx context.Context) error {
	const batch = 8
	base := d.cursor.Add(batch) - batch
	recs := make([]payload, batch)
	for i := range recs {
		recs[i] = d.pool[(base+int64(i))%int64(len(d.pool))]
	}
	d.issuedRecords.Add(batch)
	var resp struct {
		IDs []int64 `json:"ids"`
	}
	if err := d.send(ctx, http.MethodPost, d.target+"/records", map[string]any{"records": recs}, &resp); err != nil {
		return err
	}
	d.ackedRecords.Add(int64(len(resp.IDs)))
	d.mu.Lock()
	for _, id := range resp.IDs {
		d.acked[id] = true
	}
	for d.acked[d.known] {
		delete(d.acked, d.known)
		d.known++
	}
	d.mu.Unlock()
	if d.resolveAfter > 0 && d.since.Add(int64(len(resp.IDs))) >= d.resolveAfter {
		select {
		case d.kick <- struct{}{}:
		default: // a pass is already due
		}
	}
	return nil
}

// postAnswers POSTs four answers on random pairs of acked records.
func (d *driver) postAnswers(ctx context.Context, rng *rand.Rand) error {
	known := d.knownPrefix()
	type answer struct {
		Lo     int64   `json:"lo"`
		Hi     int64   `json:"hi"`
		FC     float64 `json:"fc"`
		Source string  `json:"source"`
	}
	answers := make([]answer, 4)
	for i := range answers {
		lo := rng.Int63n(known - 1)
		answers[i] = answer{Lo: lo, Hi: lo + 1 + rng.Int63n(known-lo-1), FC: rng.Float64(), Source: "drill"}
	}
	var resp struct {
		Accepted int64 `json:"accepted"`
	}
	if err := d.send(ctx, http.MethodPost, d.target+"/answers", map[string]any{"answers": answers}, &resp); err != nil {
		return err
	}
	d.ackedAnswers.Add(resp.Accepted)
	// Only a fully acked batch proves each of its pairs durable;
	// under-counting is the safe side of a floor.
	if resp.Accepted == int64(len(answers)) {
		d.mu.Lock()
		for _, a := range answers {
			if k := [2]int64{a.Lo, a.Hi}; !d.pairs[k] {
				d.pairs[k] = true
				d.distinctPairs.Add(1)
			}
		}
		d.mu.Unlock()
	}
	return nil
}

// resolveLoop POSTs /resolve on the cadence, and whenever resolveAfter
// records were acked since the last pass, until ctx ends.
func (d *driver) resolveLoop(ctx context.Context) {
	tick := time.NewTicker(d.resolveEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		case <-d.kick:
		}
		d.since.Store(0)
		err := d.send(ctx, http.MethodPost, d.target+"/resolve", nil, nil)
		if err == nil {
			d.resolves.Add(1)
		}
		d.count(ctx, err)
	}
}

// send issues one request with an optional JSON body, requires a 200,
// and decodes the response into out when out is non-nil.
func (d *driver) send(ctx context.Context, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, req.URL.Path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// awaitAcked waits until the server has acked at least n records.
func (d *driver) awaitAcked(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for d.ackedRecords.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d records acked before the deadline", d.ackedRecords.Load(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkClean asserts the run did work and no request failed.
func (d *driver) checkClean(t *testing.T) {
	t.Helper()
	if d.ops.Load() == 0 {
		t.Error("the driver completed no operations")
	}
	if n := d.errs.Load(); n != 0 {
		t.Errorf("%d request errors, first: %v", n, d.firstErr)
	}
}

// checkPrefix asserts the committed-prefix contract on a server
// recovered from a crash image or promoted over a dead leader:
//
//   - every record acked before the crash is present (an ack follows its
//     fsync);
//   - no record beyond what was ever issued appears;
//   - every distinct answer pair fully acked before the crash is in the
//     answer cache;
//   - the clustering is an exact partition of the records, so no event
//     was double-applied;
//   - the server still serves: it takes a record and completes a resolve.
//
// Sharded acks complete out of order, so the recovered id space can have
// gaps: the checks count members and bound ids by the issue ceiling
// rather than expect dense ids.
func checkPrefix(t *testing.T, l *serve.Local, ackedRecords, ackedPairs, issued int64) {
	t.Helper()
	snap := l.Server.Snapshot()
	t.Logf("acked floor %d records, %d distinct pairs; %d issued; server holds %d records, %d answers",
		ackedRecords, ackedPairs, issued, snap.Records, snap.Answers)
	if int64(snap.Records) < ackedRecords {
		t.Errorf("CONTRACT VIOLATION: %d records acked before the crash, only %d on the server", ackedRecords, snap.Records)
	}
	if int64(snap.Records) > issued {
		t.Errorf("CONTRACT VIOLATION: the server holds %d records but only %d were ever issued", snap.Records, issued)
	}
	if int64(snap.Answers) < ackedPairs {
		t.Errorf("CONTRACT VIOLATION: %d distinct answer pairs acked before the crash, only %d on the server", ackedPairs, snap.Answers)
	}
	seen := make(map[int]bool, snap.Records)
	for _, cluster := range snap.Clusters {
		for _, id := range cluster {
			if id < 0 || int64(id) >= issued {
				t.Errorf("CONTRACT VIOLATION: cluster member %d was never issued (ceiling %d)", id, issued)
			}
			if seen[id] {
				t.Errorf("CONTRACT VIOLATION: record %d appears in two clusters — event double-applied", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != snap.Records {
		t.Errorf("CONTRACT VIOLATION: clusters cover %d members but the server holds %d records", len(seen), snap.Records)
	}
	for _, probe := range []struct{ path, body string }{
		{"/records", `{"records":[{"fields":{"text":"post crash probe record"}}]}`},
		{"/resolve", ""},
	} {
		resp, err := http.Post(l.URL+probe.path, "application/json", strings.NewReader(probe.body))
		if err != nil {
			t.Fatalf("POST %s after recovery: %v", probe.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s after recovery: status %d", probe.path, resp.StatusCode)
		}
	}
}

// crashDrill is the durability drill: it ingests records and answers
// under load, copies the live journal tree mid-write (the crash image:
// a reachable disk state, torn tail included), aborts the server without
// a checkpoint, recovers a fresh server from the image and checks the
// committed-prefix contract on it.
func crashDrill(t *testing.T, cfg serve.Config) {
	dir := t.TempDir()
	liveDir, imageDir := filepath.Join(dir, "live"), filepath.Join(dir, "image")
	cfg.Journal, cfg.Seed, cfg.Obs = liveDir, 1, obs.New()
	l, err := serve.StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := newDriver(t, l.URL, [4]int{70, 30, 0, 0})
	stop := d.start()
	defer stop()
	d.awaitAcked(t, ackTarget)

	// The floor is read before the copy begins: each counted ack's
	// events were fsynced before its response, so they are in the image.
	// The issue ceiling is read after the copy ends: nothing beyond it
	// can be in the image.
	ackedRecords, ackedPairs := d.ackedRecords.Load(), d.distinctPairs.Load()
	if err := copyCrashImage(liveDir, imageDir); err != nil {
		t.Fatalf("copying the crash image: %v", err)
	}
	issued := d.issuedRecords.Load()
	stop()
	d.checkClean(t)
	if ackedRecords < ackTarget {
		t.Errorf("ack floor %d below the target %d", ackedRecords, ackTarget)
	}
	// The image, not the live directory, is the machine that crashed.
	if err := l.Abort(); err != nil {
		t.Fatalf("aborting the live server: %v", err)
	}

	t0 := time.Now()
	l2, err := serve.StartLocal(serve.Config{Journal: imageDir, Seed: 1})
	if err != nil {
		t.Fatalf("recovering the crash image: %v", err)
	}
	recovery := time.Since(t0)
	defer l2.Close()
	t.Logf("recovered in %v; %d acked answers", recovery, d.ackedAnswers.Load())
	if recovery <= 0 {
		t.Error("recovery time not recorded")
	}
	checkPrefix(t, l2, ackedRecords, ackedPairs, issued)
	if ackedPairs == 0 {
		t.Error("no answer pair acked before the crash image: the answers floor was not exercised")
	}
}

// TestCrashRestart runs the crash drill on one shard.
func TestCrashRestart(t *testing.T) {
	crashDrill(t, serve.Config{})
}

// TestCrashRestartSharded runs the crash drill at 3 shards, where the
// image spans a router journal and three shard journals copied at
// different instants.
func TestCrashRestartSharded(t *testing.T) {
	crashDrill(t, serve.Config{Shards: 3})
}

// TestCrashRestartGroupCommit runs the crash drill with the batched
// write path on: acks ride 2ms group fsyncs, and 32 KiB segments rotate
// while the live tree is being copied. An ack still follows the fsync of
// the group holding its events, so the contract is the same.
func TestCrashRestartGroupCommit(t *testing.T) {
	crashDrill(t, serve.Config{CommitWindow: 2 * time.Millisecond, RotateBytes: 32 << 10})
}

// TestCrashRestartGroupCommitSharded repeats the batched drill at 3
// shards: three group-committing shard WALs and the router WAL, each
// rotating on its own under the copy.
func TestCrashRestartGroupCommitSharded(t *testing.T) {
	crashDrill(t, serve.Config{Shards: 3, CommitWindow: 2 * time.Millisecond, RotateBytes: 32 << 10})
}

// copyCrashImage copies a live journal tree into a crash image. A
// concurrent copy captures each file at a different instant, so the
// order matters across files: a cross-shard answer in the router
// journal names records in two shard journals. Records are acked (their
// shard journal fsynced) before any answer naming them is issued, so
// copying the router journal first puts every captured answer's records
// in the later shard copies, and every image is a reachable crash state.
// Same-shard answers share a file with their records, and this drill
// issues no resolves, the other cross-journal event class.
func copyCrashImage(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	routerSrc := filepath.Join(src, journal.RouterDir)
	if _, err := os.Stat(routerSrc); err == nil {
		if err := copyTree(routerSrc, filepath.Join(dst, journal.RouterDir)); err != nil {
			return err
		}
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name() == journal.RouterDir {
			continue // copied first, must not be refreshed
		}
		if err := copyTree(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies a file or directory tree whose files may grow during
// the walk: each copy is a prefix of the file's eventual content, which
// is what a hard kill leaves of an append-only fsynced log.
//
// Within a directory the files are copied newest name first. WAL segment
// names sort by starting sequence, so with rotation on the writer
// appends to the last segment and may open a newer one mid-copy. Copied
// oldest first, an image could hold a prefix of the old tail segment and
// then, after a rotation, the whole new segment: a sequence gap no crash
// produces. Copied newest first, every segment the writer has moved past
// is complete. Compaction, the one thing that rewrites old segments, is
// off: the drills leave CheckpointEvery unset.
func copyTree(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return copyFile(src, dst)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for i := len(ents) - 1; i >= 0; i-- {
		if err := copyTree(filepath.Join(src, ents[i].Name()), filepath.Join(dst, ents[i].Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies one file as it stands at this instant.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// failoverDrill is the replication durability drill: a leader ingests
// under load while a follower streams its journals and serves the
// reads; at the ack target the leader is killed and the follower is
// promoted over the dead leader's journal directory. The promoted
// server must keep the committed-prefix contract and take writes.
func failoverDrill(t *testing.T, shards int) {
	dir := t.TempDir()
	leaderDir := filepath.Join(dir, "leader")
	leader, err := serve.StartLocal(serve.Config{Journal: leaderDir, Shards: shards, Seed: 1, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Abort()
	fol, err := serve.StartLocal(serve.Config{
		Journal:   filepath.Join(dir, "standby"),
		Follow:    leader.URL + "/replica/stream",
		ReplicaID: "standby",
		Seed:      1,
		Obs:       obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	d := newDriver(t, leader.URL, [4]int{65, 25, 8, 2})
	d.read = fol.URL
	stop := d.start()
	defer stop()
	d.awaitAcked(t, ackTarget)

	// Floor before the kill, issue ceiling after the last request ends.
	ackedRecords, ackedPairs := d.ackedRecords.Load(), d.distinctPairs.Load()
	stop()
	issued := d.issuedRecords.Load()
	d.checkClean(t)
	if ackedRecords < ackTarget {
		t.Errorf("ack floor %d below the target %d", ackedRecords, ackTarget)
	}
	var status struct {
		Lag int64 `json:"lag"`
	}
	if err := d.send(context.Background(), http.MethodGet, fol.URL+"/replica/status", nil, &status); err != nil {
		t.Fatalf("reading the follower's lag: %v", err)
	}
	if err := leader.Abort(); err != nil {
		t.Fatalf("killing the leader: %v", err)
	}

	// Promote over the dead leader's directory: fence its epoch and
	// replay whatever committed tail the follower had not yet fetched.
	t0 := time.Now()
	err = d.send(context.Background(), http.MethodPost, fol.URL+"/replica/promote",
		map[string]string{"source_journal": leaderDir}, nil)
	promote := time.Since(t0)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	t.Logf("follower lag %d at the kill; promoted in %v", status.Lag, promote)
	if promote <= 0 {
		t.Error("promote time not recorded")
	}
	checkPrefix(t, fol, ackedRecords, ackedPairs, issued)
}

// TestReplicaFailoverSmoke runs the failover drill on one shard.
func TestReplicaFailoverSmoke(t *testing.T) {
	failoverDrill(t, 1)
}

// TestReplicaFailoverSharded runs the failover drill at 3 shards: three
// shard journals and the router stream, promoted together.
func TestReplicaFailoverSharded(t *testing.T) {
	failoverDrill(t, 3)
}

// TestBackendOutageSmoke is the marketplace fault drill: the backend the
// router prefers drops nearly every question, so its purchases ride the
// retry-then-degrade path while the careful backend and the machine
// fallback keep answers flowing. Resolves must complete and the market
// must keep routing, with zero request errors. The dropped backend's
// deadline is tight because each of its questions burns timeout ×
// attempts before degrading.
func TestBackendOutageSmoke(t *testing.T) {
	rec := obs.New()
	l, err := serve.StartLocal(serve.Config{
		Journal: t.TempDir(),
		Seed:    1,
		Obs:     rec,
		Fleet:   "fast:1:20:0.12:drop=0.98:timeout=250us;careful:6:10:0.02;machine:0:0:0.35:machine",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Resolve cost grows with the pending pairs, so the mix is light on
	// ingest and a pass is also due every 64 acked records: an empty
	// server would otherwise swallow the pool before the first tick and
	// leave one pass longer than the run.
	d := newDriver(t, l.URL, [4]int{10, 5, 60, 25})
	d.workers, d.resolveEvery, d.resolveAfter = 4, 150*time.Millisecond, 64
	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	defer cancel()
	d.run(ctx)
	d.checkClean(t)
	if d.resolves.Load() == 0 {
		t.Error("no resolve completed")
	}
	if rec.Counter(market.MetricRouted) == 0 {
		t.Error("the market routed no questions")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("closing the server: %v", err)
	}
}
