package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"acd/internal/crowd"
	"acd/internal/obs"
)

// servingSpec describes one of the three serving workloads.
type servingSpec struct {
	name string
	// shards and commitWindow are the acdserve settings that differ
	// from the defaults (1 shard, fsync per event); everything else —
	// -checkpoint-every 256 included — stays at its default.
	shards       int
	commitWindow time.Duration
	plan         func(sz sizes, seed int64) (*plan, error)
	// probe marks the op kinds the measured phase does not issue; the
	// epilogue probe supplies their latency figures.
	probe [numOpKinds]bool
	// knownLedger marks a measured phase whose answers the server's
	// cache size can be audited against: one sequential client, and
	// every posted pair involves a record newer than the last resolve.
	knownLedger bool
	// minF1 is the floor the final clustering's pairwise F1 must reach
	// at the frozen sizes; ten seeds at the seed commit gave 0.986–0.993
	// (ingest-durable), 0.977–0.985 (crowd-loop), 0.972–0.979
	// (serve-mixed).
	minF1 float64
}

var servingSpecs = map[string]servingSpec{
	"ingest-durable": {
		name:  "ingest-durable",
		plan:  planIngest,
		probe: [numOpKinds]bool{opAnswers: true, opResolve: true, opClusters: true},
		minF1: 0.95,
	},
	"crowd-loop": {
		name:  "crowd-loop",
		plan:  planCrowdLoop,
		probe: [numOpKinds]bool{opClusters: true},
		minF1: 0.95,

		knownLedger: true,
	},
	"serve-mixed": {
		name:         "serve-mixed",
		shards:       2,
		commitWindow: 2 * time.Millisecond,
		plan:         planServeMixed,
		minF1:        0.93,
	},
}

// flags renders the spec as acdserve's command line, journal included.
func (spec servingSpec) flags(journalDir string) []string {
	args := []string{"-journal", journalDir}
	if spec.shards > 0 {
		args = append(args, "-shards", fmt.Sprint(spec.shards))
	}
	if spec.commitWindow > 0 {
		args = append(args, "-commit-window", spec.commitWindow.String())
	}
	return args
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	PlanHash  string             `json:"plan_hash"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Checks    []check            `json:"checks"`
	// Unresolved lists layers whose self time came out below −5 % of
	// the workload's wall: printed as unresolved, not as a number.
	Unresolved []string `json:"unresolved,omitempty"`
}

// check is one enforced correctness condition.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// correct reports whether every check passed and no operation failed.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// env is what a run needs from its surroundings.
type env struct {
	root    string // module root
	workDir string // scratch space under the build directory
	sz      sizes
	seed    int64
	tr      *tracer // nil when tracing is off
	// withhold drops one acked id from the verifier's view: the
	// deliberately broken check a test uses to prove that a failed check
	// exits non-zero.
	withhold bool
}

// serverSession is a started server plus what set-up learned.
type serverSession struct {
	bin  string // the acdserve binary set-up built
	srv  *child
	dir  string
	pl   *plan
	ids  *idMap
	tgt  apiTarget
	done func()
}

// setupServing performs one complete set-up: draw the plan, build the
// server, boot it on a fresh journal directory and run the preload.
func setupServing(e *env, spec servingSpec) (*serverSession, error) {
	pl, err := spec.plan(e.sz, e.seed)
	if err != nil {
		return nil, err
	}
	if len(pl.probe) == 0 {
		rng := rand.New(rand.NewSource(e.seed ^ 0x9e0be))
		pl.probe = probeOps(pl.pool, measuredRecords(pl), spec.probe, e.sz, rng)
	}
	bin, err := buildServer(e.root)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, spec.name+"-journal-")
	if err != nil {
		return nil, err
	}
	srv, _, err := startServer(bin, spec.flags(dir)...)
	if err != nil {
		return nil, err
	}
	tgt, done := newHTTPTarget(srv.base, clients)
	s := &serverSession{bin: bin, srv: srv, dir: dir, pl: pl, ids: newIDMap(len(pl.pool)), tgt: tgt, done: done}
	if len(pl.preload) > 0 {
		pre := drive("preload", tgt, pl, [][]op{pl.preload}, s.ids, nil)
		if pre.failed > 0 {
			s.close()
			return nil, fmt.Errorf("preload: %w", pre.firstErr)
		}
	}
	return s, nil
}

// measuredRecords is how many pool records the preload and the
// measured phase consume; probe records start there.
func measuredRecords(pl *plan) int {
	n := 0
	count := func(ops []op) {
		for _, o := range ops {
			if o.kind == opRecords && o.recHi > n {
				n = o.recHi
			}
		}
	}
	count(pl.preload)
	for _, c := range pl.clients {
		count(c)
	}
	return n
}

func (s *serverSession) close() {
	s.done()
	s.srv.kill()
	os.RemoveAll(s.dir)
}

// restart kills the server and starts it again on the same journal
// with the same flags, returning the time from exec to the first 200
// from /healthz.
func (s *serverSession) restart(e *env, spec servingSpec) (time.Duration, error) {
	s.done()
	s.srv.kill()
	srv, boot, err := startServer(s.bin, spec.flags(s.dir)...)
	if err != nil {
		return 0, err
	}
	s.srv = srv
	s.tgt, s.done = newHTTPTarget(srv.base, clients)
	return boot, nil
}

// getJSON fetches one of the server's JSON endpoints.
func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// crowdLedger accumulates the server's own crowd counters over the
// intervals between open and close. A restarted server counts from
// zero, so every interval is read from one process.
type crowdLedger struct {
	base                         obs.Metrics
	questions, iterations, cents int64
}

func (l *crowdLedger) open(server string) error {
	l.base = obs.Metrics{}
	return getJSON(server, "/metrics", &l.base)
}

func (l *crowdLedger) close(server string) error {
	var now obs.Metrics
	if err := getJSON(server, "/metrics", &now); err != nil {
		return err
	}
	l.questions += now.Counters[crowd.MetricQuestionsAnswered] - l.base.Counters[crowd.MetricQuestionsAnswered]
	l.iterations += now.Counters[crowd.MetricIterations] - l.base.Counters[crowd.MetricIterations]
	l.cents += now.Counters[crowd.MetricCents] - l.base.Counters[crowd.MetricCents]
	return nil
}

// restartCycles kills the server and restarts it on the same journal
// Restarts times over. After every restart the server must hold every
// acked record, each in exactly one cluster; the median time from exec
// to the first healthy answer is the recovery metric.
func (s *serverSession) restartCycles(e *env, spec servingSpec, res *result) error {
	acked := s.ids.acked
	var boots []float64
	for i := 1; i <= e.sz.Restarts; i++ {
		boot, err := s.restart(e, spec)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		boots = append(boots, boot.Seconds())
		var hz struct{ Records int }
		err = getJSON(s.srv.base, "/healthz", &hz)
		res.check(fmt.Sprintf("restart-%d-records", i), err == nil && hz.Records == acked,
			"healthz records %d, acked %d, err %v", hz.Records, acked, err)
		v, err := s.tgt.clusters()
		if err == nil {
			err = checkPartition(v.clusters, e.verifierCount(acked))
		}
		res.check(fmt.Sprintf("restart-%d-partition", i), err == nil, "%v", err)
	}
	res.Metrics["recovery_s"] = median(boots)
	return nil
}

// runProbe drives the epilogue probe with one sequential client and
// books its operations into res.
func (s *serverSession) runProbe(res *result) *phase {
	pr := drive("probe", s.tgt, s.pl, [][]op{s.pl.probe}, s.ids, nil)
	res.Attempted += pr.attempted
	res.Failed += pr.failed
	res.check("probe-no-failed-ops", pr.failed == 0, "%d of %d probe ops failed; first: %v", pr.failed, pr.attempted, pr.firstErr)
	return pr
}

// timeSetup performs set-up SetupReps times over and books the median
// duration as setup_s; what the last repetition built is the run's.
func timeSetup(e *env, res *result, setup func() error) error {
	var durations []float64
	for rep := 0; rep < e.sz.SetupReps; rep++ {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		durations = append(durations, time.Since(start).Seconds())
	}
	res.Metrics["setup_s"] = median(durations)
	return nil
}

// runServing runs one serving workload end to end against a child
// acdserve and fills res with the end-to-end metrics and checks. It
// returns the plan and the measured phase for the ladder to replay. In
// a traced run the restarts and the probe are skipped: the ladder
// replays the measured phase only.
func runServing(e *env, spec servingSpec, res *result) (*plan, *phase, error) {
	var s *serverSession
	err := timeSetup(e, res, func() (err error) {
		if s != nil {
			s.close()
		}
		s, err = setupServing(e, spec)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	res.PlanHash = s.pl.hash()

	ledger := &crowdLedger{}
	if err := ledger.open(s.srv.base); err != nil {
		return nil, nil, err
	}

	// Measured phase.
	cpu0, err := s.srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPUSeconds()
	main := drive("e2e", s.tgt, s.pl, s.pl.clients, s.ids, e.tr)
	self1 := selfCPUSeconds()
	cpu1, err := s.srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	res.Metrics["wall_s"] = main.wall.Seconds()
	res.Metrics["server_cpu_s"] = cpu1 - cpu0
	res.Metrics["records_per_s"] = float64(main.ackedRecords) / main.wall.Seconds()
	res.Metrics["loadgen.cpu_s"] = self1 - self0
	res.Metrics["loadgen.max_inflight"] = float64(main.maxInflight)
	for _, k := range []opKind{opRecords, opAnswers, opClusters} {
		res.Metrics["loadgen."+k.String()+"_p99_ms"] = percentile(main.latMS[k], 99)
	}
	if rss, err := s.srv.peakRSSMB(); err == nil {
		res.Metrics["serve.peak_rss_mb"] = rss // unreadable: left missing, which a traced run reports
	}
	res.Attempted, res.Failed = main.attempted, main.failed
	res.check("no-failed-ops", main.failed == 0, "%d of %d ops failed; first: %v", main.failed, main.attempted, main.firstErr)
	res.check("max-inflight", int(main.maxInflight) <= len(s.pl.clients), "%d requests in flight with %d clients", main.maxInflight, len(s.pl.clients))
	res.check("answers-accepted", main.acceptedAnswers == main.postedAnswers,
		"%d accepted of %d posted", main.acceptedAnswers, main.postedAnswers)
	if spec.knownLedger {
		// The server's answer cache must hold exactly the posted pairs
		// plus what earlier resolves asked.
		want := main.postedAnswers + main.askedBeforeLast
		res.check("known-answers", main.knownAtLastPost == want,
			"server knows %d answers, posted %d + asked %d", main.knownAtLastPost, main.postedAnswers, main.askedBeforeLast)
	}
	if err := ledger.close(s.srv.base); err != nil {
		return nil, nil, err
	}

	// Latency figures come from the measured phase, or — for op kinds it
	// does not issue — from the probe; the crowd ledger spans both.
	lat, resolves := main.latMS, main.resolves
	if e.tr == nil {
		if err := s.restartCycles(e, spec, res); err != nil {
			return nil, nil, err
		}
		if len(s.pl.probe) > 0 {
			if err := ledger.open(s.srv.base); err != nil {
				return nil, nil, err
			}
			pr := s.runProbe(res)
			if err := ledger.close(s.srv.base); err != nil {
				return nil, nil, err
			}
			for k := range lat {
				if len(lat[k]) == 0 {
					lat[k] = pr.latMS[k]
				}
			}
			resolves = append(resolves, pr.resolves...)
		}
	}
	fillLatencyMetrics(res, lat)

	// Final state: dense ids, a partition, accuracy.
	final, err := s.tgt.clusters()
	if err != nil {
		return nil, nil, fmt.Errorf("final GET /clusters: %w", err)
	}
	acked := s.ids.acked
	res.check("dense-ids", s.ids.dupIDs == 0 && final.records == acked,
		"%d duplicate or out-of-range ids; server holds %d records, %d acked", s.ids.dupIDs, final.records, acked)
	perr := checkPartition(final.clusters, e.verifierCount(acked))
	res.check("final-partition", perr == nil, "%v", perr)
	// A traced run skips the probe, so ingest-durable has resolved
	// nothing yet: accuracy is an untraced figure. (Withholding an id
	// fails the partition check above on purpose; the clustering itself
	// is still whole.)
	if entity, dense := s.ids.entities(s.pl.pool); e.tr == nil && dense && (perr == nil || e.withhold) {
		f1 := pairF1(final.clusters, entity)
		res.Metrics["f1"] = f1
		floor := e.sz.f1Floor(spec.minF1)
		res.check("f1-floor", f1 >= floor, "f1 %.4f below %.2f", f1, floor)
	}

	// The resolve replies and the server's own crowd counters are two
	// ledgers of the same questions; they must agree.
	var asked, iters int
	for _, st := range resolves {
		asked += st.QuestionsAsked
		iters += st.Iterations
	}
	res.Metrics["crowd_pairs"] = float64(asked)
	res.Metrics["crowd_iterations"] = float64(iters)
	res.Metrics["crowd_cents"] = float64(ledger.cents)
	res.check("crowd-ledger", ledger.questions == int64(asked) && ledger.iterations == int64(iters),
		"server counted %d questions in %d iterations, resolve replies %d in %d", ledger.questions, ledger.iterations, asked, iters)
	return s.pl, main, nil
}

// verifierCount is the id universe the partition checks expect; the
// broken-check mode withholds one acked id from it.
func (e *env) verifierCount(acked int) int {
	if e.withhold {
		return acked - 1
	}
	return acked
}

// fillLatencyMetrics books the median latency and the sample count of
// every op kind.
func fillLatencyMetrics(res *result, lat [numOpKinds][]float64) {
	res.Samples = make(map[string]int)
	for k := opKind(0); k < numOpKinds; k++ {
		res.Samples[k.String()] = len(lat[k])
		if len(lat[k]) > 0 {
			res.Metrics[k.String()+"_p50_ms"] = median(lat[k])
		}
	}
}
