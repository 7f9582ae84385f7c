package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acd/internal/journal"
	"acd/internal/testutil"
)

// httpJSONCall issues one request and decodes the JSON response.
func httpJSONCall(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
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

func postRecords(t *testing.T, base string, fields ...string) []any {
	t.Helper()
	var recs []string
	for _, f := range fields {
		recs = append(recs, fmt.Sprintf(`{"fields":{"name":%q}}`, f))
	}
	code, m := httpJSONCall(t, http.MethodPost, base+"/records",
		`{"records":[`+strings.Join(recs, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	return m["ids"].([]any)
}

// waitCaughtUp polls the follower's /clusters until it reports the
// wanted record count and resolve round with zero replication lag. The
// lag header is computed from the leader watermarks of the follower's
// last fetch, so on its own it can read 0 before a just-committed
// resolve has shipped.
func waitCaughtUp(t *testing.T, base string, wantRecords, wantRound int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/clusters")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		lag := resp.Header.Get(LagHeader)
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if lag == "" {
			t.Fatalf("follower read has no %s header", LagHeader)
		}
		if int(m["records"].(float64)) >= wantRecords && int(m["round"].(float64)) >= wantRound && lag == "0" {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to %d records, round %d", wantRecords, wantRound)
}

// TestFollowerServesStaleReads: a follower tracking a live leader over
// real HTTP serves /clusters, /healthz, and /metrics from its standby
// with a lag header, refuses writes with 503, and reports its role on
// /replica/status.
func TestFollowerServesStaleReads(t *testing.T) {
	baseline := testutil.Baseline()
	leader, err := StartLocal(Config{Journal: t.TempDir(), Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := StartLocal(Config{
		Journal:   t.TempDir(),
		Follow:    leader.URL + "/replica/stream",
		ReplicaID: "standby-1",
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	postRecords(t, leader.URL,
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"harbor seafood grill market st",
	)
	if code, m := httpJSONCall(t, http.MethodPost, leader.URL+"/resolve", ""); code != http.StatusOK {
		t.Fatalf("POST /resolve: %d %v", code, m)
	}
	waitCaughtUp(t, follower.URL, 3, 1)

	// The standby's clustering matches the leader's snapshot.
	want, _ := json.Marshal(leader.Server.Snapshot().Clusters)
	got, _ := json.Marshal(follower.Server.Snapshot().Clusters)
	if !bytes.Equal(want, got) {
		t.Errorf("follower clusters %s, leader %s", got, want)
	}

	// Writes are refused while following.
	code, m := httpJSONCall(t, http.MethodPost, follower.URL+"/records",
		`{"records":[{"fields":{"name":"x"}}]}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("follower POST /records: %d %v, want 503", code, m)
	}
	if code, _ := httpJSONCall(t, http.MethodPost, follower.URL+"/resolve", ""); code != http.StatusServiceUnavailable {
		t.Errorf("follower POST /resolve: %d, want 503", code)
	}

	// /metrics and /healthz also carry the lag header on a follower.
	resp, err := http.Get(follower.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(LagHeader) == "" {
		t.Errorf("/metrics on follower missing %s", LagHeader)
	}
	if code, m := httpJSONCall(t, http.MethodGet, follower.URL+"/healthz", ""); code != http.StatusOK || m["status"] != "following" {
		t.Errorf("follower /healthz: %d %v", code, m)
	}

	// Roles on /replica/status.
	if _, m := httpJSONCall(t, http.MethodGet, leader.URL+"/replica/status", ""); m["mode"] != "leader" || m["streaming"] != true {
		t.Errorf("leader status %v", m)
	}
	if _, m := httpJSONCall(t, http.MethodGet, follower.URL+"/replica/status", ""); m["mode"] != "follower" || m["replica_id"] != "standby-1" {
		t.Errorf("follower status %v", m)
	}

	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoroutines(t, baseline)
}

// TestPromoteEndToEnd: the leader dies, the follower is promoted with
// the old journal directory, and the promoted server owns the full
// acknowledged history, fences the old epoch on disk, and takes writes.
func TestPromoteEndToEnd(t *testing.T) {
	baseline := testutil.Baseline()
	leaderDir := filepath.Join(t.TempDir(), "leader")
	leader, err := StartLocal(Config{Journal: leaderDir, Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Abort()
	follower, err := StartLocal(Config{
		Journal: filepath.Join(t.TempDir(), "standby"),
		Follow:  leader.URL + "/replica/stream",
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	postRecords(t, leader.URL,
		"chez olive bistro french sunset blvd",
		"chez olive bistro french sunset",
	)
	waitCaughtUp(t, follower.URL, 2, 0)
	// One more write the follower may not have seen: promotion must
	// recover it from the old journal directory.
	postRecords(t, leader.URL, "harbor seafood grill market st")
	if err := leader.Abort(); err != nil {
		t.Fatal(err)
	}

	code, m := httpJSONCall(t, http.MethodPost, follower.URL+"/replica/promote",
		fmt.Sprintf(`{"source_journal":%q}`, leaderDir))
	if code != http.StatusOK || m["mode"] != "leader" {
		t.Fatalf("promote: %d %v", code, m)
	}
	if int(m["records"].(float64)) != 3 {
		t.Errorf("promoted with %v records, want 3 (tail replayed)", m["records"])
	}
	if int64(m["epoch"].(float64)) < 1 {
		t.Errorf("promoted epoch %v, want >= 1", m["epoch"])
	}

	// The old tree is fenced at (at least) the promoted epoch: a
	// revenant leader reopening it must stand down.
	oldTree, err := journal.NewDirTree(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	oldEpoch, err := journal.ReadEpoch(oldTree.Root())
	if err != nil {
		t.Fatal(err)
	}
	if oldEpoch < int64(m["epoch"].(float64)) {
		t.Errorf("old tree epoch %d below promoted %v", oldEpoch, m["epoch"])
	}

	// A second promote is refused: this server already leads.
	if code, _ := httpJSONCall(t, http.MethodPost, follower.URL+"/replica/promote", ""); code != http.StatusConflict {
		t.Errorf("second promote: %d, want 409", code)
	}

	// The promoted leader takes writes and streams to new followers.
	postRecords(t, follower.URL, "golden dragon palace chinese broadway")
	if code, m := httpJSONCall(t, http.MethodGet, follower.URL+"/clusters", ""); code != http.StatusOK || int(m["records"].(float64)) != 4 {
		t.Fatalf("promoted /clusters: %d %v", code, m)
	}
	if _, m := httpJSONCall(t, http.MethodGet, follower.URL+"/replica/status", ""); m["mode"] != "leader" || m["streaming"] != true {
		t.Errorf("promoted status %v", m)
	}

	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoroutines(t, baseline)
}
