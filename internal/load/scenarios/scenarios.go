// Package scenarios is the orchestrated serving-layer benchmark suite:
// each scenario boots a real journaled acdserve in-process
// (internal/serve), drives it with a configured internal/load workload,
// and returns the load report. The suite covers steady state
// (baseline), saturation (high-load), flash crowds (bursty), snapshot
// read stress (read-heavy), a slow faulty crowd behind /resolve
// (degraded-crowd), a mid-ingest crash image whose recovery is
// checked against the committed-prefix contract (crash-restart), the
// replication topology: followers absorbing snapshot reads
// (replica-reads) and a leader kill with follower promotion
// (replica-failover), and the crowd marketplace: budget-aware routing
// under a mid-run price spike (mixed-fleet) and the preferred
// backend dropping every question (backend-outage). Every
// scenario runs in a seconds-scale smoke mode (CI) and a full mode
// (committed BENCH numbers); scripts/loadbench.sh orchestrates both,
// and docs/serving.md maps each scenario to the question it answers.
package scenarios

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"acd/internal/dataset"
	"acd/internal/load"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/serve"
)

// Options configures one suite run; the zero value needs only Dir.
type Options struct {
	// Dir is the scratch directory for journals and crash images
	// (required; each scenario uses its own subdirectory).
	Dir string
	// Shards is the server shard count (default 1).
	Shards int
	// Smoke shrinks every scenario to a seconds-scale run for CI; full
	// mode produces the committed benchmark numbers.
	Smoke bool
	// Seed drives the server permutations and the workload sequence
	// (default 1).
	Seed int64
	// CommitWindow holds the scenario servers' journal commit groups
	// open this long, so concurrent requests share one fsync; 0 is one
	// commit per request per journal. The crash-restart-groupcommit
	// scenario forces it on.
	CommitWindow time.Duration
	// RotateBytes rotates scenario-server WAL segments past this size
	// (0 = no rotation).
	RotateBytes int64
	// Log receives progress lines (nil = discard).
	Log io.Writer
}

// withDefaults validates and resolves the zero values.
func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("scenarios: Dir required")
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("scenarios: negative shard count")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o, nil
}

// phases returns the warmup and measured durations for the mode.
func (o Options) phases() (warmup, measure time.Duration) {
	if o.Smoke {
		return 100 * time.Millisecond, 700 * time.Millisecond
	}
	return 2 * time.Second, 8 * time.Second
}

// pool builds the churn pool for the mode.
func (o Options) pool() ([]load.Payload, error) {
	cfg := dataset.SyntheticConfig{Entities: 500, Records: 5000, Seed: o.Seed}
	if o.Smoke {
		cfg.Entities, cfg.Records = 60, 300
	}
	return load.SyntheticPool(cfg)
}

// Scenario is one named benchmark: a workload shape plus the server
// configuration it runs against.
type Scenario struct {
	// Name is the CLI-facing identifier (stable; documented in
	// docs/serving.md).
	Name string
	// Desc is a one-line description for -list output.
	Desc string
	// Run executes the scenario and returns its report.
	Run func(Options) (*load.Report, error)
}

// All returns every scenario in canonical order.
func All() []Scenario {
	return []Scenario{
		{
			Name: "baseline",
			Desc: "steady-state default mix, closed loop at moderate concurrency",
			Run:  runBaseline,
		},
		{
			Name: "high-load",
			Desc: "write-heavy mix at high closed-loop concurrency (saturation)",
			Run:  runHighLoad,
		},
		{
			Name: "bursty",
			Desc: "open-loop Poisson arrivals with square-wave rate bursts",
			Run:  runBursty,
		},
		{
			Name: "read-heavy",
			Desc: "snapshot read stress: mostly GET /clusters while resolves churn",
			Run:  runReadHeavy,
		},
		{
			Name: "degraded-crowd",
			Desc: "resolves against a slow, faulty simulated crowd source",
			Run:  runDegradedCrowd,
		},
		{
			Name: "crash-restart",
			Desc: "mid-ingest crash image; recovery checked against the committed-prefix contract",
			Run:  runCrashRestart,
		},
		{
			Name: "crash-restart-groupcommit",
			Desc: "the crash drill with group commit and segment rotation on; same committed-prefix contract",
			Run:  runCrashRestartGroupCommit,
		},
		{
			Name: "replica-reads",
			Desc: "leader takes writes while two followers absorb every snapshot read",
			Run:  runReplicaReads,
		},
		{
			Name: "replica-failover",
			Desc: "leader killed mid-ingest; follower promoted over its journals, committed-prefix contract checked",
			Run:  runReplicaFailover,
		},
		{
			Name: "mixed-fleet",
			Desc: "resolves buy answers across a heterogeneous crowd fleet; the cheap backend's price spikes mid-run",
			Run:  runMixedFleet,
		},
		{
			Name: "backend-outage",
			Desc: "the router's preferred backend drops every question; retry/degrade keeps resolves flowing",
			Run:  runBackendOutage,
		},
	}
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// startServer boots a journaled in-process server for a scenario and
// returns it with the recorder its metrics land in. fleet, when
// non-empty, is the marketplace spec answering its resolve questions
// (serve.Config.Fleet); spikes re-price its backends mid-run.
func startServer(o Options, name, fleet string, spikes ...market.Spike) (*serve.Local, *obs.Recorder, error) {
	rec := obs.New()
	cfg := serve.Config{
		Journal:      filepath.Join(o.Dir, name),
		Shards:       o.Shards,
		Seed:         o.Seed,
		CommitWindow: o.CommitWindow,
		RotateBytes:  o.RotateBytes,
		Obs:          rec,
		Fleet:        fleet,
	}
	if len(spikes) > 0 {
		// serve.Config spells a fleet but not a price schedule: build
		// the marketplace it would, plus the spikes.
		backends, err := market.Fleet(fleet, serve.PairScore(o.Seed), o.Seed)
		if err != nil {
			return nil, nil, err
		}
		m := market.New(market.Config{
			Backends:     backends,
			BudgetCents:  market.Unlimited,
			Order:        market.OrderConfidence,
			ShortCircuit: true,
			Spikes:       spikes,
			Seed:         o.Seed,
		})
		m.SetRecorder(rec)
		cfg.Source = m
	}
	l, err := serve.StartLocal(cfg)
	return l, rec, err
}

// runWorkload is the shared scenario body: boot a server (over fleet
// and spikes, see startServer), run one generator configuration against
// it, close gracefully, label the report. A scenario with a fleet also
// gets the router's accounting — total and per-backend spend, routed
// and inferred question counts — folded into the report's Extra
// metrics, which flow into BENCH_N.json as Load/<scenario>/scenario.
func runWorkload(o Options, name, fleet string, spikes []market.Spike, shape func(*load.Config)) (*load.Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	l, rec, err := startServer(o, name, fleet, spikes...)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	pool, err := o.pool()
	if err != nil {
		return nil, err
	}
	warmup, measure := o.phases()
	cfg := load.Config{
		Target:   l.URL,
		Pool:     pool,
		Warmup:   warmup,
		Duration: measure,
		Seed:     o.Seed,
	}
	shape(&cfg)
	g, err := load.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "scenario %s: fleet %q, %d shards, warmup %v, measure %v\n", name, fleet, o.Shards, warmup, measure)
	rep, err := g.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	rep.Scenario = name
	rep.Shards = o.Shards
	if errs := rep.TotalErrors(); errs > 0 {
		return rep, fmt.Errorf("scenario %s: %d request errors during measured window", name, errs)
	}
	if fleet != "" {
		rep.Extra = map[string]float64{
			"spend_cents":      float64(rec.Counter(market.MetricSpendCents)),
			"routed":           float64(rec.Counter(market.MetricRouted)),
			"short_circuited":  float64(rec.Counter(market.MetricShortCircuited)),
			"budget_fallbacks": float64(rec.Counter(market.MetricFallbacks)),
		}
		specs, _ := market.ParseFleet(fleet) // the server parsed it already
		for _, s := range specs {
			rep.Extra["spend_"+s.ID+"_cents"] = float64(rec.Counter(market.BackendMetric(s.ID, "cents")))
			rep.Extra["questions_"+s.ID] = float64(rec.Counter(market.BackendMetric(s.ID, "questions")))
		}
	}
	if err := l.Close(); err != nil {
		return rep, fmt.Errorf("scenario %s: closing server: %w", name, err)
	}
	return rep, nil
}

// resolveHeavy is the workload shape of the scenarios that measure the
// /resolve path rather than ingest (degraded-crowd and the marketplace
// pair). Resolve cost is close to (pending pairs × per-query crowd
// latency) — every churned duplicate densifies the candidate graph — so
// the mix is ingest-light and resolves run frequently to keep each
// pass's pair backlog small. A smoke run is too short to leave that to
// the cadence: an empty server swallows the whole pool before the first
// tick, and that one pass at a faulty crowd's pace outlasts the window.
// There a pass is also due every 64 acked records, so its backlog is
// bounded by work whatever the server's ingest speed.
func resolveHeavy(o Options, c *load.Config) {
	c.Mix = load.Mix{Records: 10, Answers: 5, Clusters: 60, Metrics: 25}
	c.Concurrency = 8
	c.ResolveEvery = 400 * time.Millisecond
	if o.Smoke {
		c.Concurrency = 4
		c.ResolveEvery = 150 * time.Millisecond
		c.ResolveEveryRecords = 64
	}
}

func runBaseline(o Options) (*load.Report, error) {
	return runWorkload(o, "baseline", "", nil, func(c *load.Config) {
		c.Concurrency = 8
		c.ResolveEvery = 500 * time.Millisecond
		if o.Smoke {
			c.Concurrency = 4
			c.ResolveEvery = 200 * time.Millisecond
		}
	})
}

func runHighLoad(o Options) (*load.Report, error) {
	return runWorkload(o, "high-load", "", nil, func(c *load.Config) {
		c.Mix = load.Mix{Records: 70, Answers: 20, Clusters: 8, Metrics: 2}
		c.Concurrency = 32
		c.RecordBatch = 16
		if o.Smoke {
			c.Concurrency = 8
		}
	})
}

func runBursty(o Options) (*load.Report, error) {
	return runWorkload(o, "bursty", "", nil, func(c *load.Config) {
		c.Arrival = load.ArrivalPoisson
		c.Concurrency = 64
		c.Rate = 300
		c.Burst = &load.Burst{Rate: 1500, Period: 2 * time.Second, Duty: 0.3}
		if o.Smoke {
			c.Rate = 150
			c.Burst = &load.Burst{Rate: 600, Period: 400 * time.Millisecond, Duty: 0.3}
		}
	})
}

func runReadHeavy(o Options) (*load.Report, error) {
	return runWorkload(o, "read-heavy", "", nil, func(c *load.Config) {
		c.Mix = load.Mix{Records: 8, Answers: 2, Clusters: 70, Metrics: 20}
		c.Concurrency = 16
		c.ResolveEvery = 300 * time.Millisecond
		if o.Smoke {
			c.Concurrency = 8
			c.ResolveEvery = 150 * time.Millisecond
		}
	})
}

func runDegradedCrowd(o Options) (*load.Report, error) {
	// A one-backend fleet is a single simulated crowd: error rate 0, so
	// answers are the pseudo-crowd's own, delivered slowly and
	// unreliably. Crowd fault rates stay constant across modes; only the
	// latency scale shrinks for smoke. The measurement of interest is
	// how much the faulty crowd stretches /resolve while snapshot reads
	// stay flat.
	fleet := "sim:2:20:0:lat=500us:spike=0.05:drop=0.05:fault=0.05:timeout=10ms"
	if o.Smoke {
		fleet = "sim:2:20:0:lat=20us:spike=0.05:drop=0.05:fault=0.05:timeout=1ms"
	}
	return runWorkload(o, "degraded-crowd", fleet, nil, func(c *load.Config) { resolveHeavy(o, c) })
}
