package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acd/internal/testutil"
)

// testServer runs the real run() seam on an ephemeral port and gives
// the test its base URL plus a graceful-stop handle.
type testServer struct {
	base string
	out  *bytes.Buffer
	errb *bytes.Buffer
	stop func() int
}

func startServer(t *testing.T, extra ...string) *testServer {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errb bytes.Buffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(ctx, args, &out, &errb, ready) }()
	select {
	case addr := <-ready:
		ts := &testServer{base: "http://" + addr, out: &out, errb: &errb}
		ts.stop = func() int {
			cancel()
			select {
			case code := <-done:
				return code
			case <-time.After(15 * time.Second):
				t.Fatalf("server did not shut down; stderr:\n%s", errb.String())
				return -1
			}
		}
		return ts
	case code := <-done:
		cancel()
		t.Fatalf("server exited early with %d; stderr:\n%s", code, errb.String())
	case <-time.After(15 * time.Second):
		cancel()
		t.Fatalf("server never became ready; stderr:\n%s", errb.String())
	}
	return nil
}

// call makes one request and decodes the JSON response body.
func call(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, m
}

func recordsBody(texts ...string) string {
	var recs []string
	for _, s := range texts {
		recs = append(recs, fmt.Sprintf(`{"fields":{"text":%q}}`, s))
	}
	return `{"records":[` + strings.Join(recs, ",") + `]}`
}

// TestServeRestart is the end-to-end smoke, run at several shard
// counts: a journaled server ingests records and answers, resolves, is
// stopped gracefully, and a second server over the same journal
// directory recovers the identical clustering and keeps working. Also
// checks no goroutines leak across the full lifecycle.
func TestServeRestart(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			testServeRestart(t, shards)
		})
	}
}

func testServeRestart(t *testing.T, shards int) {
	baseline := testutil.Baseline()
	dir := t.TempDir()

	ts := startServer(t, "-journal", dir, "-seed", "3", "-checkpoint-every", "0", "-shards", fmt.Sprint(shards))
	code, m := call(t, http.MethodPost, ts.base+"/records", recordsBody(
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"chez olive bistro french sunset blvd",
		"chez olive bistro french sunset",
		"harbor seafood grill market st",
	))
	if code != http.StatusOK || len(m["ids"].([]any)) != 5 {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, ts.base+"/answers", `{"answers":[{"lo":0,"hi":1,"fc":1,"source":"test"}]}`); code != http.StatusOK || m["accepted"].(float64) != 1 {
		t.Fatalf("POST /answers: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, ts.base+"/resolve", ""); code != http.StatusOK || m["Round"].(float64) != 1 {
		t.Fatalf("POST /resolve: %d %v", code, m)
	}
	code, before := call(t, http.MethodGet, ts.base+"/clusters", "")
	if code != http.StatusOK || before["records"].(float64) != 5 || before["round"].(float64) != 1 {
		t.Fatalf("GET /clusters: %d %v", code, before)
	}

	// Error paths while we're here.
	if code, _ = call(t, http.MethodGet, ts.base+"/records", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /records = %d, want 405", code)
	}
	if code, _ = call(t, http.MethodPost, ts.base+"/answers", `{"answers":[{"lo":9,"hi":4,"fc":2}]}`); code != http.StatusBadRequest {
		t.Errorf("bad answer = %d, want 400", code)
	}
	// A batch with a valid entry followed by an invalid one is rejected
	// whole: the valid prefix must NOT be applied.
	_, m = call(t, http.MethodPost, ts.base+"/answers", `{"answers":[]}`)
	knownBefore := m["known"].(float64)
	if code, _ = call(t, http.MethodPost, ts.base+"/answers", `{"answers":[{"lo":0,"hi":4,"fc":1},{"lo":9,"hi":4,"fc":2}]}`); code != http.StatusBadRequest {
		t.Errorf("mixed answer batch = %d, want 400", code)
	}
	if _, m = call(t, http.MethodPost, ts.base+"/answers", `{"answers":[]}`); m["known"].(float64) != knownBefore {
		t.Errorf("mixed batch partially applied: known %v -> %v", knownBefore, m["known"])
	}
	if code, m = call(t, http.MethodGet, ts.base+"/healthz", ""); code != http.StatusOK || m["status"] != "ok" {
		t.Errorf("GET /healthz: %d %v", code, m)
	}
	if code, _ = call(t, http.MethodGet, ts.base+"/metrics", ""); code != http.StatusOK {
		t.Errorf("GET /metrics = %d", code)
	}
	if ec := ts.stop(); ec != 0 {
		t.Fatalf("first server exit code %d; stderr:\n%s", ec, ts.errb.String())
	}

	// Restart over the same journal without -shards: the pinned count
	// is adopted and state survives byte-for-byte.
	ts2 := startServer(t, "-journal", dir, "-seed", "3", "-checkpoint-every", "0")
	code, after := call(t, http.MethodGet, ts2.base+"/clusters", "")
	if code != http.StatusOK || !reflect.DeepEqual(after, before) {
		t.Fatalf("clusters after restart:\n got %v\nwant %v", after, before)
	}
	if !strings.Contains(ts2.errb.String(), "recovered 5 records, round 1") {
		t.Errorf("restart did not report recovery; stderr:\n%s", ts2.errb.String())
	}

	// The recovered engine keeps working: one more near-duplicate of
	// record 4 merges into its cluster in round 2.
	if code, m = call(t, http.MethodPost, ts2.base+"/records", recordsBody("harbor seafood grill market st s")); code != http.StatusOK {
		t.Fatalf("POST /records after restart: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, ts2.base+"/resolve", ""); code != http.StatusOK || m["Round"].(float64) != 2 {
		t.Fatalf("POST /resolve after restart: %d %v", code, m)
	}
	code, m = call(t, http.MethodGet, ts2.base+"/clusters", "")
	if code != http.StatusOK {
		t.Fatalf("GET /clusters: %d", code)
	}
	found := false
	for _, c := range m["clusters"].([]any) {
		if reflect.DeepEqual(c, []any{4.0, 5.0}) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected cluster [4 5] after wave 2, got %v", m["clusters"])
	}
	if ec := ts2.stop(); ec != 0 {
		t.Fatalf("second server exit code %d; stderr:\n%s", ec, ts2.errb.String())
	}

	// Everything the two servers started must be gone.
	testutil.CheckGoroutines(t, baseline)
}

// copyTree copies a journal directory tree (one level of
// subdirectories, as the sharded layout uses) byte by byte. Copying
// while a server is appending yields some prefix of each file —
// exactly the disk image a hard kill at that moment could leave.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(to, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, from, to)
			continue
		}
		b, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartUnderLoad snapshots the journal directory while writers
// are streaming records into a 3-shard server — the moral equivalent of
// kill -9 between a record's ack and the next checkpoint — and starts a
// second server from the copy. Every record acknowledged before the
// copy began must be recovered (acks follow the WAL fsync), the
// recovered clustering must be a consistent partition, and the
// recovered server must keep working.
func TestRestartUnderLoad(t *testing.T) {
	dir, dir2 := t.TempDir(), t.TempDir()
	ts := startServer(t, "-journal", dir, "-seed", "3", "-checkpoint-every", "0", "-shards", "3")

	code, m := call(t, http.MethodPost, ts.base+"/records", recordsBody(
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"chez olive bistro french sunset blvd",
		"chez olive bistro french sunset",
		"harbor seafood grill market st",
	))
	if code != http.StatusOK || len(m["ids"].([]any)) != 5 {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, ts.base+"/resolve", ""); code != http.StatusOK {
		t.Fatalf("POST /resolve: %d %v", code, m)
	}

	// Writers stream records (records only — record appends are the one
	// event class with no cross-journal dependencies, so any per-shard
	// prefix combination the copy catches is a reachable crash image).
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, m := call(t, http.MethodPost, ts.base+"/records",
					recordsBody(fmt.Sprintf("stream writer %d record %d unique tokens", w, i)))
				if code != http.StatusOK {
					t.Errorf("streamed POST /records: %d %v", code, m)
					return
				}
				acked.Add(1)
			}
		}(w)
	}

	for acked.Load() < 20 { // let the stream actually overlap the copy
		time.Sleep(time.Millisecond)
	}
	floor := 5 + int(acked.Load())
	copyTree(t, dir, dir2)
	close(stop)
	wg.Wait()

	// The copy is a crash image: bring it up while the original is
	// still running and check the durable floor.
	ts2 := startServer(t, "-journal", dir2, "-seed", "3", "-checkpoint-every", "0")
	if !strings.Contains(ts2.errb.String(), "(3 shards): recovered") {
		t.Errorf("recovery did not report the sharded layout; stderr:\n%s", ts2.errb.String())
	}
	code, m = call(t, http.MethodGet, ts2.base+"/clusters", "")
	if code != http.StatusOK {
		t.Fatalf("GET /clusters: %d", code)
	}
	records := int(m["records"].(float64))
	if records < floor {
		t.Errorf("recovered %d records, but %d were acked before the copy", records, floor)
	}
	members := 0
	for _, c := range m["clusters"].([]any) {
		members += len(c.([]any))
	}
	if members != records {
		t.Errorf("recovered clustering lists %d members over %d records", members, records)
	}

	// The recovered server keeps working.
	if code, m = call(t, http.MethodPost, ts2.base+"/records", recordsBody("post crash record")); code != http.StatusOK {
		t.Fatalf("POST /records after crash recovery: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, ts2.base+"/resolve", ""); code != http.StatusOK {
		t.Fatalf("POST /resolve after crash recovery: %d %v", code, m)
	}
	if ec := ts2.stop(); ec != 0 {
		t.Fatalf("recovered server exit code %d; stderr:\n%s", ec, ts2.errb.String())
	}
	if ec := ts.stop(); ec != 0 {
		t.Fatalf("original server exit code %d; stderr:\n%s", ec, ts.errb.String())
	}
}

// TestReshardRefused: a journal directory pins its shard count; asking
// for a different one must fail fast instead of scrambling the layout.
func TestReshardRefused(t *testing.T) {
	dir := t.TempDir()
	ts := startServer(t, "-journal", dir, "-shards", "2")
	if ec := ts.stop(); ec != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", ec, ts.errb.String())
	}
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-journal", dir, "-shards", "3"}, &out, &errb, nil); code != 1 {
		t.Fatalf("re-shard exit = %d, want 1; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "re-sharding") {
		t.Errorf("re-shard error not surfaced; stderr:\n%s", errb.String())
	}
}

// TestFollowAndFailover: the -follow flag end to end. A journaled
// leader streams to a follower started with -follow/-replica-id; the
// follower serves stale-ok reads with the lag header and refuses
// writes; after the leader dies, POST /replica/promote with the old
// journal directory turns the follower into a leader holding every
// acknowledged record — and it takes writes.
func TestFollowAndFailover(t *testing.T) {
	baseline := testutil.Baseline()
	leaderDir := filepath.Join(t.TempDir(), "leader")
	leader := startServer(t, "-journal", leaderDir, "-shards", "2", "-seed", "3")
	follower := startServer(t,
		"-follow", leader.base+"/replica/stream",
		"-replica-id", "dr-site",
		"-journal", filepath.Join(t.TempDir(), "standby"),
		"-seed", "3")

	code, m := call(t, http.MethodPost, leader.base+"/records", recordsBody(
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"harbor seafood grill market st",
	))
	if code != http.StatusOK || len(m["ids"].([]any)) != 3 {
		t.Fatalf("leader ingest: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, leader.base+"/resolve", ""); code != http.StatusOK {
		t.Fatalf("leader resolve: %d %v", code, m)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, m = call(t, http.MethodGet, follower.base+"/replica/status", "")
		if code == http.StatusOK && m["mode"] == "follower" && m["lag"] == float64(0) {
			if code, cm := call(t, http.MethodGet, follower.base+"/clusters", ""); code == http.StatusOK && cm["records"] == float64(3) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m["replica_id"] != "dr-site" {
		t.Errorf("replica_id %v", m["replica_id"])
	}
	if code, m = call(t, http.MethodPost, follower.base+"/records", recordsBody("x")); code != http.StatusServiceUnavailable {
		t.Errorf("follower write: %d %v, want 503", code, m)
	}

	if ec := leader.stop(); ec != 0 {
		t.Fatalf("leader exit %d; stderr:\n%s", ec, leader.errb.String())
	}
	code, m = call(t, http.MethodPost, follower.base+"/replica/promote",
		fmt.Sprintf(`{"source_journal":%q}`, leaderDir))
	if code != http.StatusOK || m["mode"] != "leader" || m["records"] != float64(3) {
		t.Fatalf("promote: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, follower.base+"/records", recordsBody("chez olive bistro french sunset")); code != http.StatusOK {
		t.Fatalf("promoted write: %d %v", code, m)
	}
	if code, m = call(t, http.MethodGet, follower.base+"/healthz", ""); code != http.StatusOK || m["records"] != float64(4) || m["status"] != "ok" {
		t.Fatalf("promoted healthz: %d %v", code, m)
	}

	if ec := follower.stop(); ec != 0 {
		t.Fatalf("follower exit %d; stderr:\n%s", ec, follower.errb.String())
	}
	testutil.CheckGoroutines(t, baseline)
}

// TestBadFlags: unknown flags exit 2 without touching the network.
func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-bogus"}, &out, &errb, nil); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errb.String())
	}
}

// TestFlagsDocumented: every flag -h prints appears as `-name` in the
// README's flag table.
func TestFlagsDocumented(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	table := string(raw)
	start, end := strings.Index(table, "### Flags"), strings.Index(table, "## Running acdserve")
	if start < 0 || end < start {
		t.Fatal("README.md has no flag table before its acdserve section")
	}
	table = table[start:end]
	var out, errb bytes.Buffer
	run(context.Background(), []string{"-h"}, &out, &errb, nil)
	n := 0
	for _, line := range strings.Split(errb.String(), "\n") {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		name := strings.Fields(line)[0]
		n++
		if !strings.Contains(table, "`"+name+"`") && !strings.Contains(table, "`"+name+" ") {
			t.Errorf("flag %s is not in README.md's flag table", name)
		}
	}
	if n == 0 {
		t.Fatalf("-h printed no flags:\n%s", errb.String())
	}
}
