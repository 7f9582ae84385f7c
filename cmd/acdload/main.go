// Command acdload is the YCSB-style workload generator for the serving
// layer. It drives an acdserve HTTP API — either a remote one
// (-target) or a self-hosted in-process server (-journal/-shards) —
// with a configurable operation mix under a closed-loop or open-loop
// Poisson arrival process, and reports per-endpoint throughput and
// latency percentiles. -scenario runs the curated benchmark suite
// instead (baseline, high-load, bursty, read-heavy, degraded-crowd,
// crash-restart, crash-restart-groupcommit, replica-reads,
// replica-failover). -read-targets fans the snapshot reads out over
// follower replicas while writes stay on -target. -commit-window and
// -rotate-bytes turn on journal group commit and WAL segment rotation
// on the servers acdload hosts itself, for before/after write-path
// comparisons. Reports are written as a suite JSON (-out) that
// `benchjson -load` folds into the committed BENCH_N.json trajectory.
// The methodology handbook is docs/serving.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"acd/internal/dataset"
	"acd/internal/load"
	"acd/internal/load/scenarios"
	"acd/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// flags builds acdload's flag set over a destination struct; main and
// the flag↔documentation parity test share it.
type options struct {
	target       string
	readTargets  string
	journal      string
	shards       int
	scenario     string
	list         bool
	smoke        bool
	mix          string
	arrival      string
	rate         float64
	burstRate    float64
	burstPeriod  time.Duration
	burstDuty    float64
	concurrency  int
	duration     time.Duration
	warmup       time.Duration
	recordBatch  int
	answerBatch  int
	resolveEvery time.Duration
	churnRecords int
	churnEnts    int
	churnNoise   float64
	seed         int64
	commitWindow time.Duration
	rotateBytes  int64
	out          string
	label        string
	labelSuffix  string
}

// flags registers every acdload flag on a fresh FlagSet.
func flags(o *options, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("acdload", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.target, "target", "", "base URL of a running acdserve to drive (empty = self-host an in-process server)")
	fs.StringVar(&o.readTargets, "read-targets", "", "comma-separated base URLs that take the snapshot reads round-robin (follower replicas; empty = reads go to -target)")
	fs.StringVar(&o.journal, "journal", "", "journal directory for the self-hosted server, and scratch root for scenarios (empty = temp dir)")
	fs.IntVar(&o.shards, "shards", 1, "shard count of the self-hosted server")
	fs.StringVar(&o.scenario, "scenario", "", "run a named benchmark scenario, or \"all\" for the whole suite")
	fs.BoolVar(&o.list, "list", false, "list the benchmark scenarios and exit")
	fs.BoolVar(&o.smoke, "smoke", false, "seconds-scale scenario mode for CI smoke runs")
	fs.StringVar(&o.mix, "mix", "60,20,15,5", "operation mix weights records,answers,clusters,metrics")
	fs.StringVar(&o.arrival, "arrival", "closed", "arrival process: closed or poisson")
	fs.Float64Var(&o.rate, "rate", 200, "open-loop arrival rate in ops/sec (poisson only)")
	fs.Float64Var(&o.burstRate, "burst-rate", 0, "burst-window arrival rate in ops/sec (0 = no bursts)")
	fs.DurationVar(&o.burstPeriod, "burst-period", 2*time.Second, "burst cycle length")
	fs.Float64Var(&o.burstDuty, "burst-duty", 0.3, "fraction of each burst period spent at the burst rate")
	fs.IntVar(&o.concurrency, "concurrency", 16, "closed-loop workers, or the open-loop in-flight cap")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "measured window length")
	fs.DurationVar(&o.warmup, "warmup", 2*time.Second, "unrecorded warmup before the measured window")
	fs.IntVar(&o.recordBatch, "record-batch", 8, "records per POST /records")
	fs.IntVar(&o.answerBatch, "answer-batch", 4, "answers per POST /answers")
	fs.DurationVar(&o.resolveEvery, "resolve-every", 0, "background POST /resolve cadence (0 = never)")
	fs.IntVar(&o.churnRecords, "churn-records", 5000, "synthetic churn pool size in records")
	fs.IntVar(&o.churnEnts, "churn-entities", 500, "ground-truth entities in the churn pool")
	fs.Float64Var(&o.churnNoise, "churn-noise", 0.15, "per-token corruption probability of churned duplicates")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the request sequence (arrivals, op picks, churn, answer pairs)")
	fs.DurationVar(&o.commitWindow, "commit-window", 0, "journal group-commit window on self-hosted/scenario servers (0 = one commit per request per journal; D > 0 additionally holds the group open up to D for concurrent requests)")
	fs.Int64Var(&o.rotateBytes, "rotate-bytes", 0, "WAL segment rotation size on self-hosted/scenario servers (0 = no rotation)")
	fs.StringVar(&o.out, "out", "", "write the suite report JSON here (merge into BENCH files with benchjson -load)")
	fs.StringVar(&o.label, "label", "adhoc", "scenario label for ad-hoc (non -scenario) runs")
	fs.StringVar(&o.labelSuffix, "label-suffix", "", "string appended to every report's scenario label (keeps before/after runs distinct in one BENCH file)")
	return fs
}

// run is the testable entrypoint; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flags(&o, stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.list {
		for _, s := range scenarios.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.Name, s.Desc)
		}
		return 0
	}
	var reports []*load.Report
	var err error
	if o.scenario != "" {
		reports, err = runScenarios(o, stdout, stderr)
	} else {
		reports, err = runAdhoc(o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "acdload: %v\n", err)
		return 1
	}
	for _, rep := range reports {
		rep.Scenario += o.labelSuffix
		rep.Render(stdout)
	}
	if o.out != "" {
		if err := load.WriteSuite(o.out, &load.Suite{Reports: reports}); err != nil {
			fmt.Fprintf(stderr, "acdload: writing %s: %v\n", o.out, err)
			return 1
		}
		fmt.Fprintf(stderr, "acdload: wrote %d reports to %s\n", len(reports), o.out)
	}
	return 0
}

// runScenarios runs one named scenario or the whole suite.
func runScenarios(o options, stdout, stderr io.Writer) ([]*load.Report, error) {
	dir := o.journal
	if dir == "" {
		tmp, err := os.MkdirTemp("", "acdload-scenarios-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	opts := scenarios.Options{
		Dir: dir, Shards: o.shards, Smoke: o.smoke, Seed: o.seed,
		CommitWindow: o.commitWindow, RotateBytes: o.rotateBytes,
		Log: stderr,
	}
	var todo []scenarios.Scenario
	if o.scenario == "all" {
		todo = scenarios.All()
	} else {
		s, ok := scenarios.Find(o.scenario)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (use -list)", o.scenario)
		}
		todo = []scenarios.Scenario{s}
	}
	var reports []*load.Report
	for _, s := range todo {
		rep, err := s.Run(opts)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runAdhoc drives one workload built from the flags, against -target or
// a self-hosted server.
func runAdhoc(o options, stderr io.Writer) ([]*load.Report, error) {
	mix, err := parseMix(o.mix)
	if err != nil {
		return nil, err
	}
	pool, err := load.SyntheticPool(dataset.SyntheticConfig{
		Entities: o.churnEnts,
		Records:  o.churnRecords,
		Noise:    o.churnNoise,
		Seed:     o.seed,
	})
	if err != nil {
		return nil, err
	}
	target := o.target
	shards := 0
	if target == "" {
		l, err := serve.StartLocal(serve.Config{
			Journal: o.journal, Shards: o.shards, Seed: o.seed,
			CommitWindow: o.commitWindow, RotateBytes: o.rotateBytes,
		})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		target = l.URL
		shards = l.Server.Shards()
		fmt.Fprintf(stderr, "acdload: self-hosted server at %s (%d shards)\n", target, shards)
	}
	cfg := load.Config{
		Target:       target,
		ReadTargets:  splitTargets(o.readTargets),
		Mix:          mix,
		Arrival:      load.ArrivalKind(o.arrival),
		Rate:         o.rate,
		Concurrency:  o.concurrency,
		Warmup:       o.warmup,
		Duration:     o.duration,
		RecordBatch:  o.recordBatch,
		AnswerBatch:  o.answerBatch,
		ResolveEvery: o.resolveEvery,
		Pool:         pool,
		Seed:         o.seed,
	}
	if o.burstRate > 0 {
		cfg.Burst = &load.Burst{Rate: o.burstRate, Period: o.burstPeriod, Duty: o.burstDuty}
	}
	g, err := load.New(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := g.Run(context.Background())
	if err != nil {
		return nil, err
	}
	rep.Scenario = o.label
	rep.Shards = shards
	return []*load.Report{rep}, nil
}

// splitTargets parses the -read-targets comma list.
func splitTargets(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseMix parses "records,answers,clusters,metrics" integer weights.
func parseMix(s string) (load.Mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return load.Mix{}, fmt.Errorf("-mix wants 4 comma-separated weights, got %q", s)
	}
	var w [4]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return load.Mix{}, fmt.Errorf("-mix weight %q invalid", p)
		}
		w[i] = v
	}
	return load.Mix{Records: w[0], Answers: w[1], Clusters: w[2], Metrics: w[3]}, nil
}
