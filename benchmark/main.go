// Command benchmark is the repository's one benchmark: four fixed-work
// workloads — batch-dedup, ingest-durable, crowd-loop, serve-mixed —
// that between them exercise every layer from the HTTP front-end down
// to the journal's fsyncs, measured end to end against a real acdserve
// child process (and the acd.Deduplicate facade for the batch
// workload), with a traced mode that replays the same generated inputs
// in-process down a layer ladder to say where the time went.
//
// Usage:
//
//	go run ./benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                   [-repeat N] [-json FILE]
//	go run ./benchmark compare A.json B.json
//
// Every metric is printed by name with its unit; the last line of
// standard output is one JSON object (correct, attempted, failed,
// metrics) per the contract in BENCHMARK.json. A failed check or a
// failed operation exits non-zero after the metrics are printed.
// README.md in this directory documents workloads, metrics, the layer
// ladder and the sandbox caveats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	jsonOut  string
	// withhold hides one acked id from the verifier. No flag sets it:
	// the test of a deliberately broken check does.
	withhold bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace string
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty = all four in turn)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input is drawn from")
	fs.IntVar(&o.seconds, "seconds", runSeconds, fmt.Sprintf("size selector: %d runs the frozen sizes, other values scale every count linearly, 1 is the smoke size (work stays fixed, never time-boxed)", runSeconds))
	fs.StringVar(&trace, "trace", "0", "1 replays the workload down the layer ladder and reports the per-layer metrics; 0 reports the end-to-end metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "run N times on the one seed and print median, quartiles and relative spread per metric")
	fs.StringVar(&o.jsonOut, "json", "", "also write every run's result to this file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		return o, fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	if o.seconds < 1 || o.repeat < 1 {
		return o, fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return o, nil
}

// run is main's testable body; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return runAll(o, stdout, stderr)
}

// runAll runs the selected workloads as o says and returns the exit
// code: 0 only when every run passed every check.
func runAll(o options, stdout, stderr io.Writer) int {
	root, err := moduleRoot()
	var workDir string
	if err == nil {
		err = os.MkdirAll(filepath.Join(root, buildDirName), 0o755)
	}
	if err == nil {
		workDir, err = os.MkdirTemp(filepath.Join(root, buildDirName), "run-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	defer os.RemoveAll(workDir)
	defer killAllChildren()

	sz := frozenSizes.scaled(o.seconds)
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}

	var all []*result
	status := 0
	for _, name := range names {
		var runs []*result
		for i := 0; i < o.repeat; i++ {
			e := &env{root: root, workDir: workDir, sz: sz, seed: o.seed, withhold: o.withhold}
			if o.trace {
				e.tr = newTracer()
			}
			res, err := runWorkload(e, name)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			if e.tr != nil {
				if err := writeSpans(root, res, e.tr); err != nil {
					fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
					return 1
				}
			}
			runs = append(runs, res)
			all = append(all, res)
			if o.repeat == 1 {
				printResult(stdout, res)
			} else {
				fmt.Fprintf(stdout, "%s run %d/%d: correct=%v wall_s=%.3f\n", name, i+1, o.repeat, res.correct(), res.Metrics["wall_s"])
			}
			if !res.correct() {
				status = 1
			}
		}
		if o.repeat > 1 {
			printSpread(stdout, name, runs, o.trace)
		}
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: writing %s: %v\n", o.jsonOut, err)
			return 1
		}
	}
	// The contract's last line: the final run's verdict and metrics.
	fmt.Fprintln(stdout, contractLine(all[len(all)-1]))
	return status
}

// runWorkload runs one workload once and returns its result.
func runWorkload(e *env, name string) (*result, error) {
	res := &result{Workload: name, Seed: e.seed, Trace: e.tr != nil, Metrics: make(map[string]float64)}
	if name == "batch-dedup" {
		if err := runBatch(e, res); err != nil {
			return nil, err
		}
	} else {
		spec := servingSpecs[name]
		pl, main, err := runServing(e, spec, res)
		if err != nil {
			return nil, err
		}
		if e.tr != nil {
			if err := traceServing(e, spec, pl, main, res); err != nil {
				return nil, err
			}
		}
	}
	// Every declared metric must have been measured. A traced run books
	// zero work only where the workload is documented not to go.
	var missing []string
	for _, d := range declared(res.Trace) {
		if _, ok := res.Metrics[d.Name]; ok {
			continue
		}
		if res.Trace && slices.ContainsFunc(idle[name == "batch-dedup"], func(prefix string) bool { return strings.HasPrefix(d.Name, prefix) }) {
			res.Metrics[d.Name] = 0
			continue
		}
		missing = append(missing, d.Name)
	}
	res.check("every-metric-reported", len(missing) == 0, "not measured: %s", strings.Join(missing, ", "))
	return res, nil
}

// idle lists the per-layer metrics (by prefix) that are zero by design,
// keyed by whether the workload is batch-dedup: the layers a workload
// never enters, and — on the serving workloads — the pipeline layers'
// times, which the rungs see as exact counts only (the time is inside
// shard.resolve_s).
var idle = map[bool][]string{
	true:  {"http.", "serve.", "shard.", "incremental.", "journal.", "loadgen."},
	false: {"trace.", "market.", "pruning.seconds.", "core.pivot_s", "refine.seconds", "refine.pairs_asked", "crowd.source_s"},
}

// declared returns the metric set a run reports under the contract:
// every end-to-end metric untraced, every per-layer metric traced.
func declared(trace bool) []metricDecl {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the single JSON object the driver reads.
func contractLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for _, d := range declared(res.Trace) {
		out.Metrics[d.Name] = value{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	b, _ := json.Marshal(out) // finite floats and strings cannot fail to encode
	return string(b)
}

// printResult prints one run: every metric by name with its unit, then
// the checks.
func printResult(w io.Writer, res *result) {
	mode := "end-to-end (tracing off)"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  plan=%.12s\n", res.Workload, res.Seed, mode, res.PlanHash)
	if res.Trace {
		// A traced run still measures the end-to-end figures its
		// per-layer figures are subtracted from; show them for context.
		for _, name := range []string{"wall_s", "server_cpu_s"} {
			fmt.Fprintf(w, "  (%-30s %14.4f s)\n", name, res.Metrics[name])
		}
	}
	for _, d := range declared(res.Trace) {
		v, ok := res.Metrics[d.Name]
		switch {
		case slices.Contains(res.Unresolved, d.Name):
			fmt.Fprintf(w, "  %-32s %14s %s\n", d.Name, "unresolved", d.Unit)
		case !ok:
			fmt.Fprintf(w, "  %-32s %14s %s\n", d.Name, "missing", d.Unit)
		default:
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if len(res.Samples) > 0 {
		kinds := make([]string, 0, len(res.Samples))
		for k := range res.Samples {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprint(w, "  latency samples:")
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%d", k, res.Samples[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  checks: %d run, correct=%v\n", len(res.Checks), res.correct())
}

// writeSpans writes a traced run's spans, kept in memory until now, to
// benchmark/out/ as JSON lines.
func writeSpans(root string, res *result, tr *tracer) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", res.Workload, res.Seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
