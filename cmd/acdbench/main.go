// Command acdbench regenerates the paper's evaluation tables and
// figures (Table 3, Figures 5-8, Figure 10) on the synthetic workloads.
//
// Usage:
//
//	acdbench [-exp all|table3|fig5|fig6|fig7|fig8|fig10|ablation|chaos|market]
//	         [-seed N] [-workers 3|5] [-parallel N] [-chart]
//	         [-metrics] [-metrics-json] [-trace FILE] [-metrics-http ADDR]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// fig6, fig7 and fig8 share the same runs (one comparison produces the
// F1, pair-count and iteration series), so requesting any of them prints
// the full comparison block.
//
// With -metrics, a per-phase observability snapshot (pruning funnel,
// PC-Pivot rounds and wasted pairs, refine operations, crowd question
// accounting) is printed to stderr after the experiments finish; -trace
// streams per-round JSONL events as they happen.
//
// -exp chaos runs the fault-tolerance experiment: the full pipeline
// under escalating injected crowd-fault regimes (latency spikes, drops,
// transient errors, adversarial bursts), fully simulated on a virtual
// clock; see internal/crowd's ChaosSource and ReliableSource.
//
// -exp market runs the marketplace cost-per-F1 comparison: the full
// pipeline buying answers from an expensive accurate channel, a cheap
// noisy one, and a mixed fleet with budget-aware routing (see
// internal/market).
//
// -cpuprofile and -memprofile write pprof profiles of the run, the
// companion knobs to the benchmark suite's -cpuprofile: acdbench is the
// repo's end-to-end workload, so its profiles show where the pipeline
// spends time outside any single benchmark's scope.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"acd/internal/experiments"
	"acd/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable seam: it parses args, executes the requested
// experiments, writes results to stdout, and returns the process exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, table3, fig5, fig6, fig7, fig8, fig10, ablation, chaos, market")
	seed := fs.Int64("seed", 1, "dataset and crowd seed")
	workers := fs.Int("workers", 0, "restrict comparisons to one worker setting (3 or 5); 0 = both")
	chart := fs.Bool("chart", false, "render figure comparisons as bar charts")
	parallel := fs.Int("parallel", 0, "pruning-phase worker pool: 0 = one per CPU, 1 = sequential, N = N workers")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	obsFlags := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	experiments.SetPruneParallelism(*parallel)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "acdbench: cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "acdbench: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "acdbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "acdbench: memprofile: %v\n", err)
			}
		}()
	}
	if obsFlags.Enabled() {
		rec := obs.New()
		if err := obsFlags.Activate(rec, stderr); err != nil {
			fmt.Fprintf(stderr, "acdbench: %v\n", err)
			return 2
		}
		rec.PublishExpvar("acd")
		experiments.SetRecorder(rec)
		defer experiments.SetRecorder(nil)
		defer obsFlags.Finish(stderr)
	}

	settings := []int{3, 5}
	switch *workers {
	case 0:
	case 3, 5:
		settings = []int{*workers}
	default:
		fmt.Fprintf(stderr, "acdbench: -workers must be 3 or 5\n")
		return 2
	}

	switch *exp {
	case "all":
		runTable3(stdout, *seed)
		runFigure5(stdout, *seed)
		runComparison(stdout, *seed, settings, *chart)
		runFigure10(stdout, *seed)
	case "table3":
		runTable3(stdout, *seed)
	case "fig5":
		runFigure5(stdout, *seed)
	case "fig6", "fig7", "fig8":
		runComparison(stdout, *seed, settings, *chart)
	case "fig10":
		runFigure10(stdout, *seed)
	case "ablation":
		runAblations(stdout, *seed)
	case "chaos":
		runFaultTolerance(stdout, *seed, settings)
	case "market":
		runMarket(stdout, *seed)
	default:
		fmt.Fprintf(stderr, "acdbench: unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}

func runTable3(out io.Writer, seed int64) {
	experiments.RenderTable3(out, experiments.Table3(seed))
	experiments.Rule(out)
}

func runFigure5(out io.Writer, seed int64) {
	for _, name := range experiments.DatasetNames {
		inst := experiments.MustInstance(name, seed)
		experiments.RenderFigure5(out, experiments.Figure5(inst, 3))
		experiments.Rule(out)
	}
}

func runComparison(out io.Writer, seed int64, settings []int, chart bool) {
	for _, name := range experiments.DatasetNames {
		inst := experiments.MustInstance(name, seed)
		for _, w := range settings {
			rows := experiments.Comparison(inst, w)
			if chart {
				experiments.RenderComparisonCharts(out, name, w, rows)
			} else {
				experiments.RenderComparison(out, name, w, rows)
			}
			experiments.Rule(out)
		}
	}
}

func runFigure10(out io.Writer, seed int64) {
	for _, name := range experiments.DatasetNames {
		inst := experiments.MustInstance(name, seed)
		experiments.RenderFigure10(out, name, experiments.Figure10(inst, 3))
		experiments.Rule(out)
	}
}

func runFaultTolerance(out io.Writer, seed int64, settings []int) {
	for _, name := range experiments.DatasetNames {
		inst := experiments.MustInstance(name, seed)
		for _, w := range settings {
			experiments.RenderFaultTolerance(out, name, w, experiments.FaultTolerance(inst, w, seed))
			experiments.Rule(out)
		}
	}
}

// runMarket runs the marketplace cost-per-F1 comparison on every
// dataset.
func runMarket(out io.Writer, seed int64) {
	for _, row := range experiments.CostPerF1All(seed) {
		experiments.RenderCostPerF1(out, row)
		experiments.Rule(out)
	}
}

func runAblations(out io.Writer, seed int64) {
	// The sequential Crowd-Refine and Crowd-BOEM variants are quadratic
	// in crowd rounds, so the refinement ablation uses the two faster
	// datasets; the adaptive-allocation ablation runs everywhere.
	for _, name := range []string{"Restaurant", "Product"} {
		inst := experiments.MustInstance(name, seed)
		experiments.RenderRefineVariants(out, name, 3, experiments.RefineVariants(inst, 3))
		experiments.Rule(out)
	}
	for _, name := range experiments.DatasetNames {
		inst := experiments.MustInstance(name, seed)
		experiments.RenderAdaptive(out, name, experiments.AdaptiveWorkers(inst, seed))
		experiments.Rule(out)
	}
	for _, name := range []string{"Restaurant", "Product"} {
		inst := experiments.MustInstance(name, seed)
		experiments.RenderAggregation(out, name, experiments.Aggregation(inst, seed))
		experiments.Rule(out)
	}
	for _, name := range experiments.DatasetNames {
		inst := experiments.MustInstance(name, seed)
		experiments.RenderProcessingTime(out, name, experiments.ProcessingTime(inst, 3))
		experiments.Rule(out)
	}
	{
		inst := experiments.MustInstance("Paper", seed)
		experiments.RenderRobustness(out, "Paper", experiments.Robustness(inst, seed))
		experiments.Rule(out)
	}
}
