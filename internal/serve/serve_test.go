package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"acd/internal/crowd"
	"acd/internal/journal"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/record"
)

// call makes one request against a Local server and decodes the JSON
// response body.
func call(t *testing.T, method, url, body string) (int, map[string]any) {
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

func recordsBody(texts ...string) string {
	var recs []string
	for _, s := range texts {
		recs = append(recs, fmt.Sprintf(`{"fields":{"text":%q}}`, s))
	}
	return `{"records":[` + strings.Join(recs, ",") + `]}`
}

// TestLocalLifecycle drives every endpoint of an in-process volatile
// server, including the error paths.
func TestLocalLifecycle(t *testing.T) {
	l, err := StartLocal(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	code, m := call(t, http.MethodPost, l.URL+"/records", recordsBody(
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"harbor seafood grill market st",
	))
	if code != http.StatusOK || len(m["ids"].([]any)) != 3 {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, l.URL+"/answers", `{"answers":[{"lo":0,"hi":1,"fc":1}]}`); code != http.StatusOK || m["accepted"].(float64) != 1 {
		t.Fatalf("POST /answers: %d %v", code, m)
	}
	if code, m = call(t, http.MethodPost, l.URL+"/resolve", ""); code != http.StatusOK || m["Round"].(float64) != 1 {
		t.Fatalf("POST /resolve: %d %v", code, m)
	}
	if code, m = call(t, http.MethodGet, l.URL+"/clusters", ""); code != http.StatusOK || m["records"].(float64) != 3 {
		t.Fatalf("GET /clusters: %d %v", code, m)
	}
	if code, m = call(t, http.MethodGet, l.URL+"/healthz", ""); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("GET /healthz: %d %v", code, m)
	}
	if code, _ = call(t, http.MethodGet, l.URL+"/metrics", ""); code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	// Error paths.
	if code, _ = call(t, http.MethodGet, l.URL+"/records", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /records = %d, want 405", code)
	}
	if code, _ = call(t, http.MethodGet, l.URL+"/answers", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /answers = %d, want 405", code)
	}
	if code, _ = call(t, http.MethodGet, l.URL+"/resolve", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /resolve = %d, want 405", code)
	}
	if code, _ = call(t, http.MethodPost, l.URL+"/clusters", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /clusters = %d, want 405", code)
	}
	if code, _ = call(t, http.MethodPost, l.URL+"/records", `{nope`); code != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", code)
	}
	if code, _ = call(t, http.MethodPost, l.URL+"/records", `{"records":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty records = %d, want 400", code)
	}
	if code, _ = call(t, http.MethodPost, l.URL+"/answers", `{"answers":[{"lo":0,"hi":99,"fc":1}]}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range answer = %d, want 400", code)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOpenRecoversJournal: a journaled server's state survives a
// graceful close and an Abort (no final checkpoint); a shard-count
// change against a pinned layout is refused.
func TestOpenRecoversJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := StartLocal(Config{Journal: dir, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Server.Shards() != 2 {
		t.Fatalf("Shards = %d, want 2", l.Server.Shards())
	}
	if code, m := call(t, http.MethodPost, l.URL+"/records", recordsBody("a b c", "a b c d", "x y z")); code != http.StatusOK {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	if code, m := call(t, http.MethodPost, l.URL+"/resolve", ""); code != http.StatusOK {
		t.Fatalf("POST /resolve: %d %v", code, m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := StartLocal(Config{Journal: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Server.Recovered.FromJournal || l2.Server.Recovered.Records != 3 || l2.Server.Recovered.Round != 1 {
		t.Fatalf("recovery info = %+v", l2.Server.Recovered)
	}
	// Keep working, then lose the machine without a checkpoint.
	if code, m := call(t, http.MethodPost, l2.URL+"/records", recordsBody("p q r")); code != http.StatusOK {
		t.Fatalf("POST /records after recovery: %d %v", code, m)
	}
	if err := l2.Abort(); err != nil {
		t.Fatal(err)
	}
	l3, err := StartLocal(Config{Journal: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l3.Server.Recovered.Records != 4 {
		t.Fatalf("recovered %d records after abort, want 4", l3.Server.Recovered.Records)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal pins 2 shards; 3 must be refused.
	if _, err := Open(Config{Journal: dir, Shards: 3, Seed: 3}); err == nil || !strings.Contains(err.Error(), "re-sharding") {
		t.Fatalf("re-shard error = %v, want re-sharding refusal", err)
	}
}

// TestRequestIsCommitUnit: a request body is bounded at the edge (413,
// nothing applied), and a legal batch far over the journal's per-group
// event cap is still one acknowledgment: every answer durable when the
// 200 arrives, over at most one fsync per cap's worth of events. (That
// the cap closes a group on its own, before the request does, is pinned
// where it is deterministic: journal's TestSizeCapClosesGroup.)
func TestRequestIsCommitUnit(t *testing.T) {
	dir := t.TempDir()
	rec := obs.New()
	l, err := StartLocal(Config{Journal: dir, Seed: 3, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	huge := `{"records":[{"fields":{"text":"` + strings.Repeat("x ", MaxBodyBytes/2) + `"}}]}`
	for _, path := range []string{"/records", "/answers"} {
		code, m := call(t, http.MethodPost, l.URL+path, huge)
		if msg, _ := m["error"].(string); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "split the batch") {
			t.Errorf("POST %s of %d bytes = %d %v, want 413 telling the client to split", path, len(huge), code, m)
		}
	}
	if n := l.Server.Snapshot().Records; n != 0 {
		t.Fatalf("refused bodies left %d records behind", n)
	}

	const records, answers = 50, 1000 // 1225 pairs to choose from
	texts := make([]string, records)
	for i := range texts {
		texts[i] = fmt.Sprintf("name%d street%d", i, i)
	}
	if code, m := call(t, http.MethodPost, l.URL+"/records", recordsBody(texts...)); code != http.StatusOK {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	var batch []string
	for lo := 0; lo < records; lo++ {
		for hi := lo + 1; hi < records && len(batch) < answers; hi++ {
			batch = append(batch, fmt.Sprintf(`{"lo":%d,"hi":%d,"fc":1}`, lo, hi))
		}
	}
	groups, events := rec.Counter(journal.MetricGroupCommits), rec.Counter(journal.MetricGroupedEvents)
	code, m := call(t, http.MethodPost, l.URL+"/answers", `{"answers":[`+strings.Join(batch, ",")+`]}`)
	if code != http.StatusOK || m["accepted"].(float64) != answers {
		t.Fatalf("POST /answers of %d: %d %v", answers, code, m)
	}
	groups, events = rec.Counter(journal.MetricGroupCommits)-groups, rec.Counter(journal.MetricGroupedEvents)-events
	maxGroups := int64((answers + journal.DefaultMaxEvents - 1) / journal.DefaultMaxEvents)
	if events != answers || groups < 1 || groups > maxGroups {
		t.Errorf("%d answers committed as %d events in %d groups, want %d events in 1..%d groups", answers, events, groups, answers, maxGroups)
	}
	// Lose the machine right after the 200: the whole request survives.
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	re, err := StartLocal(Config{Journal: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if snap := re.Server.Snapshot(); snap.Records != records || snap.Answers != answers {
		t.Errorf("recovered %d records and %d answers, want %d and %d", snap.Records, snap.Answers, records, answers)
	}
}

// TestDegradedCrowd: a server whose resolve path goes through the
// simulated degraded crowd — a one-backend fleet with fault options —
// still resolves (slower, deterministically), and the fallback answers
// agree with the primary path.
func TestDegradedCrowd(t *testing.T) {
	rec := obs.New()
	l, err := StartLocal(Config{
		Seed:  7,
		Obs:   rec,
		Fleet: "sim:2:20:0:lat=50us:spike=0.1:drop=0.2:fault=0.1:timeout=5ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if code, m := call(t, http.MethodPost, l.URL+"/records", recordsBody(
		"alpha beta gamma", "alpha beta gamma d", "alpha beta epsilon", "zeta eta theta")); code != http.StatusOK {
		t.Fatalf("POST /records: %d %v", code, m)
	}
	start := time.Now()
	if code, m := call(t, http.MethodPost, l.URL+"/resolve", ""); code != http.StatusOK {
		t.Fatalf("POST /resolve: %d %v", code, m)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("degraded resolve took %v — timeouts not bounding the damage", elapsed)
	}
	if code, m := call(t, http.MethodGet, l.URL+"/clusters", ""); code != http.StatusOK || m["round"].(float64) != 1 {
		t.Fatalf("GET /clusters: %d %v", code, m)
	}
	// The spec reached the chaos and retry layers: questions were
	// attempted through ReliableSource and sold by the "sim" backend.
	if rec.Counter(crowd.MetricAttempts) == 0 || rec.Counter(market.BackendMetric("sim", "questions")) == 0 {
		t.Errorf("attempts %d, sim questions %d: the fleet spec built no faulty backend",
			rec.Counter(crowd.MetricAttempts), rec.Counter(market.BackendMetric("sim", "questions")))
	}
}

// TestPairScoreDeterministic: same seed+pair → same answer; answers
// stay in [0,1).
func TestPairScoreDeterministic(t *testing.T) {
	f, g := PairScore(1), PairScore(1)
	other := PairScore(2)
	diff := 0
	for lo := 0; lo < 20; lo++ {
		for hi := lo + 1; hi < 20; hi++ {
			p := record.Pair{Lo: record.ID(lo), Hi: record.ID(hi)}
			a, b := f(p), g(p)
			if a != b {
				t.Fatalf("PairScore not deterministic at %v: %v vs %v", p, a, b)
			}
			if a < 0 || a >= 1 {
				t.Fatalf("PairScore(%v) = %v out of [0,1)", p, a)
			}
			if a != other(p) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical answer functions")
	}
}

// TestEndpointsComplete: the advertised endpoint list matches what the
// handler actually routes.
func TestEndpointsComplete(t *testing.T) {
	l, err := StartLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, ep := range Endpoints() {
		parts := strings.Fields(ep)
		if len(parts) != 2 {
			t.Fatalf("malformed endpoint %q", ep)
		}
		req, err := http.NewRequest(parts[0], l.URL+parts[1], strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s responded %d — list and mux disagree", ep, resp.StatusCode)
		}
	}
}
