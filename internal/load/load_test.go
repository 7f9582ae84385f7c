package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"acd/internal/benchfmt"
	"acd/internal/dataset"
	"acd/internal/serve"
)

// TestConfigValidation: the generator rejects malformed configs and
// resolves defaults on valid ones.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                   // no target
		{Target: "http://x"}, // no duration
		{Target: "http://x", Duration: time.Second, Mix: Mix{Records: -1, Clusters: 2}},
		{Target: "http://x", Duration: time.Second, Arrival: "weird"},
		{Target: "http://x", Duration: time.Second, Concurrency: -2},
		{Target: "http://x", Duration: time.Second}, // default mix needs a pool
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	g, err := New(Config{Target: "http://x", Duration: time.Second, Mix: Mix{Clusters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.Concurrency != 16 || g.cfg.Arrival != ArrivalClosed || g.cfg.RecordBatch != 8 {
		t.Errorf("defaults not applied: %+v", g.cfg)
	}
}

// concurrencyServer counts concurrent in-flight requests.
type concurrencyServer struct {
	cur, peak atomic.Int64
}

func (s *concurrencyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := s.cur.Add(1)
	defer s.cur.Add(-1)
	for {
		p := s.peak.Load()
		if c <= p || s.peak.CompareAndSwap(p, c) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{}")) //nolint:errcheck — test handler
}

// TestClosedLoopConcurrencyInvariant: a closed loop with C workers
// never has more than C operations in flight, and keeps the server
// saturated near C.
func TestClosedLoopConcurrencyInvariant(t *testing.T) {
	cs := &concurrencyServer{}
	ts := httptest.NewServer(cs)
	defer ts.Close()
	g, err := New(Config{
		Target:      ts.URL,
		Mix:         Mix{Clusters: 1},
		Concurrency: 8,
		Duration:    300 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p := cs.peak.Load(); p > 8 {
		t.Errorf("server saw %d concurrent requests from an 8-worker closed loop", p)
	}
	if p := rep.Counters.MaxInFlight; p > 8 {
		t.Errorf("generator recorded %d in flight, want ≤ 8", p)
	}
	if p := cs.peak.Load(); p < 4 {
		t.Errorf("closed loop only reached %d concurrent requests; workers not parallel", p)
	}
	if rep.Endpoints[EndpointClusters].Ops == 0 {
		t.Error("no measured clusters ops")
	}
}

// TestOpenLoopConcurrencyCap: the open-loop semaphore bounds in-flight
// operations at Concurrency even when the offered rate exceeds server
// capacity.
func TestOpenLoopConcurrencyCap(t *testing.T) {
	cs := &concurrencyServer{}
	ts := httptest.NewServer(cs)
	defer ts.Close()
	g, err := New(Config{
		Target:      ts.URL,
		Mix:         Mix{Metrics: 1},
		Arrival:     ArrivalPoisson,
		Rate:        5000, // far beyond a 2ms-latency server's capacity at C=4
		Concurrency: 4,
		Duration:    250 * time.Millisecond,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p := cs.peak.Load(); p > 4 {
		t.Errorf("server saw %d concurrent requests, cap is 4", p)
	}
	if rep.Endpoints[EndpointMetrics].Ops == 0 {
		t.Error("no measured metrics ops")
	}
}

// TestResolveEveryRecords: with no cadence at all, resolves are sent by
// work — never before the count of acked records is reached, and again
// each time it is.
func TestResolveEveryRecords(t *testing.T) {
	const every = 24
	var records, resolves, early atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/records":
			n := records.Add(8)
			fmt.Fprintf(w, `{"ids":[%d,%d,%d,%d,%d,%d,%d,%d]}`, n-8, n-7, n-6, n-5, n-4, n-3, n-2, n-1)
		case "/resolve":
			if records.Load() < every*(resolves.Add(1)) {
				early.Add(1)
			}
			w.Write([]byte("{}")) //nolint:errcheck — test handler
		}
	}))
	defer srv.Close()
	pool, err := SyntheticPool(dataset.SyntheticConfig{Entities: 5, Records: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Target:              srv.URL,
		Pool:                pool,
		Mix:                 Mix{Records: 1},
		Concurrency:         1,
		Duration:            150 * time.Millisecond,
		ResolveEveryRecords: every,
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors() != 0 {
		t.Fatalf("measured %d errors: %+v", rep.TotalErrors(), rep.Endpoints)
	}
	if rep.Endpoints[EndpointResolve].Ops < 2 {
		t.Errorf("%d resolves over %d acked records with one due every %d", rep.Endpoints[EndpointResolve].Ops, rep.Counters.AckedRecords, every)
	}
	if n := early.Load(); n > 0 {
		t.Errorf("%d of %d resolves arrived before %d more records were acked", n, resolves.Load(), every)
	}
}

// TestGeneratorLoopback drives a real in-process acdserve with the full
// default mix and checks the report holds together: no errors, acked
// floors advanced, answers flowed once records existed.
func TestGeneratorLoopback(t *testing.T) {
	l, err := serve.StartLocal(serve.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pool, err := SyntheticPool(dataset.SyntheticConfig{Entities: 20, Records: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 100 {
		t.Fatalf("pool size %d, want 100", len(pool))
	}
	g, err := New(Config{
		Target:       l.URL,
		Pool:         pool,
		Concurrency:  4,
		Warmup:       50 * time.Millisecond,
		Duration:     400 * time.Millisecond,
		ResolveEvery: 100 * time.Millisecond,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep.Scenario = "loopback"
	if rep.TotalErrors() != 0 {
		t.Fatalf("measured %d errors: %+v", rep.TotalErrors(), rep.Endpoints)
	}
	c := rep.Counters
	// Requests in flight at shutdown are canceled after being counted
	// as issued, so acked can trail issued — but never exceed it.
	if c.AckedRecords == 0 || c.AckedRecords > c.IssuedRecords {
		t.Errorf("records acked %d / issued %d, want 0 < acked ≤ issued", c.AckedRecords, c.IssuedRecords)
	}
	if c.AckedAnswers == 0 {
		t.Error("no answers acked over a 400ms default-mix run")
	}
	if c.Known < 2 {
		t.Errorf("known high-water %d, want ≥ 2", c.Known)
	}
	if rep.WarmupOps == 0 {
		t.Error("warmup window recorded no ops")
	}
	for _, ep := range []string{EndpointRecords, EndpointClusters, EndpointResolve} {
		if rep.Endpoints[ep].Ops == 0 {
			t.Errorf("endpoint %s measured no ops", ep)
		}
		if st := rep.Endpoints[ep]; st.Ops > 0 && (st.Throughput <= 0 || st.P50 < 0 || st.P99 < st.P50) {
			t.Errorf("endpoint %s stats incoherent: %+v", ep, st)
		}
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "records") || !strings.Contains(sb.String(), "p99ms") {
		t.Errorf("render missing expected columns:\n%s", sb.String())
	}
}

// TestSuiteRoundTrip: suite files survive write/read and fold into the
// shared benchmark document under per-report labels.
func TestSuiteRoundTrip(t *testing.T) {
	rep := &Report{
		Scenario: "baseline",
		Shards:   2,
		Measured: time.Second,
		Endpoints: map[string]EndpointStats{
			EndpointRecords:  {Ops: 100, Throughput: 100, P50: 1.5, P99: 4.5, Mean: 2},
			EndpointClusters: {Ops: 50, Throughput: 50, P50: 0.2, P99: 0.9, Mean: 0.3},
		},
		Counters: Counters{AckedRecords: 800, IssuedRecords: 800},
	}
	if got := rep.Label(); got != "baseline-2shard" {
		t.Errorf("Label = %q, want baseline-2shard", got)
	}
	path := t.TempDir() + "/suite.json"
	if err := WriteSuite(path, &Suite{Reports: []*Report{rep}}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Reports) != 1 {
		t.Fatalf("round-trip lost reports: %d", len(back.Reports))
	}
	r2 := back.Reports[0]
	if r2.Scenario != rep.Scenario || r2.Shards != rep.Shards || r2.Counters != rep.Counters {
		t.Errorf("round-trip mutated report: %+v", r2)
	}
	if r2.Endpoints[EndpointRecords] != rep.Endpoints[EndpointRecords] {
		t.Errorf("round-trip mutated endpoint stats: %+v", r2.Endpoints[EndpointRecords])
	}

	doc := &benchfmt.Document{}
	back.MergeInto(doc)
	results := doc.Labels["baseline-2shard"]
	if len(results) != 2 {
		t.Fatalf("merged %d results, want 2", len(results))
	}
	if results[0].Name != "Load/baseline/records" {
		t.Errorf("result name %q, want Load/baseline/records", results[0].Name)
	}
	if results[0].Metrics["ops/s"] != 100 || results[0].Metrics["p99_ms"] != 4.5 {
		t.Errorf("metrics not carried over: %+v", results[0].Metrics)
	}
}
