// Command acddedup deduplicates a CSV of records with the full ACD
// pipeline. The crowd is simulated: with ground-truth entity labels in
// the input (entity column ≥ 0), workers answer according to the truth
// with a configurable per-worker error rate; without labels the tool
// falls back to a pure machine pipeline (Pivot + BOEM over the machine
// scores).
//
// Usage:
//
//	acddedup -in records.csv [-mode acd|machine] [-tau 0.3] [-parallel N]
//	         [-workers 3|5] [-error 0.1] [-eps 0.1] [-x 8] [-seed 1]
//	         [-answers FILE] [-save-answers FILE]
//	         [-market SPEC|default] [-market-budget CENTS]
//	         [-crowd-timeout 1m] [-crowd-retries 2] [-chaos-drop P]
//	         [-chaos-error P] [-chaos-dup P] [-chaos-spike P]
//	         [-chaos-seed N] [-chaos-burst N] [-chaos-burst-len N]
//	         [-metrics] [-metrics-json] [-trace FILE] [-metrics-http ADDR]
//
// The input format is datagen's: a header "id,entity,<fields...>" and
// one record per row. Output is "record_id,cluster_id" per line on
// stdout; a summary (and F1 when ground truth is present) goes to
// stderr. With -metrics, a per-phase observability snapshot follows the
// summary on stderr; see internal/obs and the README's metrics
// reference.
//
// With -market, the simulated crowd becomes a heterogeneous
// marketplace: the spec (internal/market's fleet grammar, or the
// keyword "default" for the reference mixed fleet) describes backends
// with per-HIT prices, batch sizes, and calibrated error rates, and
// every question is routed to the backend with the best information
// value per cent under the optional -market-budget spend ceiling.
// -save-answers then writes a v3 answer file carrying each answer's
// backend and price. -market is incompatible with -answers, and the
// global -chaos-*/-crowd-* flags are ignored in favor of per-backend
// drop=/fault= spec options.
//
// The -chaos-* flags inject deterministic, seeded crowd faults (dropped
// answers, transient errors, duplicated deliveries, latency spikes,
// adversarial bursts) into the simulated crowd and route it through the
// fault-tolerant execution layer (-crowd-timeout, -crowd-retries), with
// questions that exhaust their retry budget degrading to the machine
// probability. Simulated fault latency runs on a virtual clock — the
// command never sleeps.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/machine"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/refine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable seam: it parses args, runs the pipeline, and
// returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acddedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV (required; datagen format)")
	mode := fs.String("mode", "acd", "pipeline: acd (simulated crowd) or machine (no crowd)")
	tau := fs.Float64("tau", pruning.DefaultTau, "pruning threshold (0 keeps every overlapping pair)")
	parallel := fs.Int("parallel", 0, "pruning-phase worker pool: 0 = one per CPU, 1 = sequential, N = N workers")
	workers := fs.Int("workers", 3, "workers per pair for the simulated crowd (odd)")
	errRate := fs.Float64("error", 0.1, "per-worker error probability for the simulated crowd")
	eps := fs.Float64("eps", core.DefaultEpsilon, "PC-Pivot wasted-pair budget")
	x := fs.Int("x", refine.DefaultX, "refinement budget divisor (T = N_m/x)")
	seed := fs.Int64("seed", 1, "random seed")
	answersIn := fs.String("answers", "", "replay crowd answers from this file (crowd.SaveAnswers format)")
	answersOut := fs.String("save-answers", "", "write the simulated crowd answers to this file for later replay")
	marketSpec := fs.String("market", "", "route questions through a marketplace fleet spec (internal/market grammar; \"default\" = reference mixed fleet)")
	marketBudget := fs.Int("market-budget", 0, "marketplace spend ceiling in cents (0 = unlimited; needs -market)")
	faultFlags := crowd.RegisterFaultFlags(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *in == "" {
		fmt.Fprintln(stderr, "acddedup: -in is required")
		return 2
	}
	rec := obs.New()
	if obsFlags.Enabled() {
		if err := obsFlags.Activate(rec, stderr); err != nil {
			fmt.Fprintf(stderr, "acddedup: %v\n", err)
			return 2
		}
		rec.PublishExpvar("acd")
		defer obsFlags.Finish(stderr)
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintf(stderr, "acddedup: %v\n", err)
		return 1
	}
	d, err := dataset.ReadCSV(f, *in)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "acddedup: %v\n", err)
		return 1
	}

	// TauSet: the flag value is explicit, so -tau 0 genuinely means
	// τ = 0 (keep every overlapping pair) rather than the default.
	cands := pruning.Prune(d.Records, pruning.Options{
		Tau:         *tau,
		TauSet:      true,
		Parallelism: *parallel,
		Obs:         rec,
	})
	truth := d.Truth()
	hasTruth := true
	for _, e := range truth {
		if e < 0 {
			hasTruth = false
			break
		}
	}

	var result *cluster.Clustering
	var stats crowd.Stats
	switch {
	case *mode == "machine" || !hasTruth:
		if *mode == "acd" {
			fmt.Fprintln(stderr, "acddedup: no ground-truth entities; falling back to machine mode")
		}
		rng := rand.New(rand.NewSource(*seed))
		scores := cands.Machine()
		result = machine.BOEMObs(machine.BestPivotObs(cands.N, scores, 10, rng, rec), scores, rec)
	case *mode == "acd" && *marketSpec != "":
		if *answersIn != "" {
			fmt.Fprintln(stderr, "acddedup: -market and -answers are mutually exclusive")
			return 2
		}
		if faultFlags.Enabled() {
			fmt.Fprintln(stderr, "acddedup: note: -chaos-*/-crowd-* flags are ignored with -market; use per-backend drop=/fault=/spike= spec options")
		}
		specs, err := market.ParseFleet(*marketSpec)
		if err != nil {
			fmt.Fprintf(stderr, "acddedup: %v\n", err)
			return 2
		}
		backends := make([]market.Backend, len(specs))
		for i, s := range specs {
			backends[i] = s.AnswerBackend(cands.PairList(), d.TruthFn(), *seed)
		}
		mkt := market.New(market.Config{
			Backends:     backends,
			BudgetCents:  market.FlagBudget(*marketBudget),
			Order:        market.OrderConfidence,
			ShortCircuit: true,
			Prior:        cands.Score,
			Seed:         *seed,
		})
		mkt.SetRecorder(rec)
		out := core.ACD(cands, mkt, core.Config{Epsilon: *eps, RefineX: *x, Seed: *seed})
		result = out.Clusters
		stats = out.Stats
		if *answersOut != "" {
			// Saved after the run, so the v3 file carries the charge
			// provenance (backend id + price) of every answer the
			// marketplace actually sold.
			if !saveAnswers(*answersOut, mkt.AnswerSet(), stderr) {
				return 1
			}
		}
		m := rec.Snapshot()
		fmt.Fprintf(stderr, "acddedup: market: %d cents spent, %d routed, %d inferred free, %d budget fallbacks\n",
			mkt.Spent(), m.Counters[market.MetricRouted],
			m.Counters[market.MetricShortCircuited], m.Counters[market.MetricFallbacks])
		if mkt.Exhausted() {
			fmt.Fprintln(stderr, "acddedup: market: budget exhausted; remaining questions degraded to the machine prior")
		}
	case *mode == "acd":
		var answers *crowd.AnswerSet
		if *answersIn != "" {
			af, err := os.Open(*answersIn)
			if err != nil {
				fmt.Fprintf(stderr, "acddedup: %v\n", err)
				return 1
			}
			answers, err = crowd.LoadAnswers(af)
			af.Close()
			if err != nil {
				fmt.Fprintf(stderr, "acddedup: %v\n", err)
				return 1
			}
		} else {
			cfg := crowd.Config{Workers: *workers, PairsPerHIT: 20, CentsPerHIT: 2, Seed: *seed}
			answers = crowd.BuildAnswers(cands.PairList(), d.TruthFn(), crowd.UniformDifficulty(*errRate), cfg)
		}
		if *answersOut != "" {
			if !saveAnswers(*answersOut, answers, stderr) {
				return 1
			}
		}
		answers.SetRecorder(rec)
		var src crowd.Source = answers
		var chaosClock *crowd.VirtualClock
		if faultFlags.Enabled() {
			// Inject the requested faults and survive them: chaos under
			// the retry/hedge/fallback machine, simulated latency on a
			// virtual clock.
			chaosClock = crowd.NewVirtualClock(time.Time{})
			src = faultFlags.Wrap(answers, cands.Score, chaosClock)
		}
		out := core.ACD(cands, src, core.Config{Epsilon: *eps, RefineX: *x, Seed: *seed})
		result = out.Clusters
		stats = out.Stats
		if chaosClock != nil {
			m := rec.Snapshot()
			fmt.Fprintf(stderr, "acddedup: crowd faults survived: %d retries, %d hedges, %d timeouts, %d fallbacks (%s simulated)\n",
				m.Counters[crowd.MetricRetries], m.Counters[crowd.MetricHedges],
				m.Counters[crowd.MetricTimeouts], m.Counters[crowd.MetricFallbacks],
				chaosClock.Elapsed().Round(time.Second))
		}
	default:
		fmt.Fprintf(stderr, "acddedup: unknown mode %q\n", *mode)
		return 2
	}

	for _, set := range result.Sets() {
		clusterID := set[0]
		for _, r := range set {
			fmt.Fprintf(stdout, "%d,%d\n", r, clusterID)
		}
	}
	fmt.Fprintf(stderr, "acddedup: %d records -> %d clusters (%d candidate pairs)\n",
		result.Len(), result.NumClusters(), len(cands.Pairs))
	if stats.Pairs > 0 {
		fmt.Fprintf(stderr, "acddedup: crowd cost: %d pairs, %d iterations, %d HITs, %d cents\n",
			stats.Pairs, stats.Iterations, stats.HITs, stats.Cents)
		if obsFlags.Enabled() {
			lat := crowd.RecordSimulatedLatency(rec, crowd.LatencyModel{Seed: *seed}, stats, *workers)
			fmt.Fprintf(stderr, "acddedup: simulated crowd latency: %s\n", lat)
		}
	}
	if hasTruth {
		e := cluster.Evaluate(result, truth)
		fmt.Fprintf(stderr, "acddedup: precision %.3f, recall %.3f, F1 %.3f\n",
			e.Precision, e.Recall, e.F1)
	}
	return 0
}

// saveAnswers writes an answer set to path, reporting failure on stderr.
func saveAnswers(path string, a *crowd.AnswerSet, stderr io.Writer) bool {
	af, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "acddedup: %v\n", err)
		return false
	}
	defer af.Close()
	if err := crowd.SaveAnswers(af, a); err != nil {
		fmt.Fprintf(stderr, "acddedup: %v\n", err)
		return false
	}
	return true
}
