package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesDeclarations pins BENCHMARK.json to the
// tables the program prints from, and to the contract's own limits.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if got := strings.Join(b.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program calibrates to %d", b.RunSeconds, runSeconds)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, program has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d = %q, program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the contract's pattern", m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, program has %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the contract's pattern", m.Unit)
		}
	}
}

// TestSameSeedSamePlan pins the generator: one seed, one op sequence.
func TestSameSeedSamePlan(t *testing.T) {
	sz := frozenSizes.scaled(1)
	for name, spec := range servingSpecs {
		a, err := spec.plan(sz, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.plan(sz, 7)
		c, _ := spec.plan(sz, 8)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 7 drew two different op sequences", name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 drew the same op sequence", name)
		}
		if len(a.clients) > 2 {
			t.Errorf("%s: %d clients on a two-core box", name, len(a.clients))
		}
	}
	p1, err := batchPhases(frozenSizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := batchPhases(frozenSizes, 7)
	p3, _ := batchPhases(frozenSizes, 8)
	if h := batchHash(p1); h != batchHash(p2) || h == batchHash(p3) {
		t.Error("batch-dedup: the campaigns' datasets do not follow the seed")
	}
	if batchHash(p1[:1]) == batchHash(p1[1:2]) || batchHash(p1[1:2]) == batchHash(p1[2:3]) {
		t.Error("batch-dedup: two campaigns drew the same dataset")
	}
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the command in-process and parses its contract line.
func runBench(t *testing.T, args ...string) (int, contractResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var res contractResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%v: last line is not the contract object: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// settle waits for goroutines of finished runs (HTTP keep-alives, shard
// queues) to exit and returns the count.
func settle(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > baseline; i++ {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestSmoke runs all four workloads at smoke sizes (-seconds 1), untraced and
// traced, validates what they print against BENCHMARK.json, and checks
// that no child process, goroutine or journal directory outlives a run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs acdserve")
	}
	decl := loadBenchmarkJSON(t)
	baseline := runtime.NumGoroutine()
	start := time.Now()
	for _, w := range decl.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, res, out := runBench(t, "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.Name, trace, code, out)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s trace=%s: verdict %+v", w.Name, trace, res)
			}
			want := make(map[string]string)
			if trace == "0" {
				for _, m := range decl.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range decl.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%s: %s in %q, declared %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", w.Name, trace, name, *m.Value)
				case trace == "0" && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, *m.Value)
				}
				if !strings.Contains(out, name) {
					t.Errorf("%s trace=%s: %s not printed by name", w.Name, trace, name)
				}
			}
			if strings.Contains(out, "unresolved") {
				t.Logf("%s: a layer came out unresolved at smoke sizes (differences of sub-second runs)", w.Name)
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke of all workloads took %v, want under 30s", d)
	}
	if n := liveChildren(); n != 0 {
		t.Errorf("%d acdserve children still alive", n)
	}
	if n := settle(baseline); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the runs:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	root, _ := moduleRoot()
	left, _ := filepath.Glob(filepath.Join(root, buildDirName, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestBrokenCheckExitsNonZero withholds one acked id from the verifier:
// the run must still print its metrics, report correct=false, and exit
// non-zero.
func TestBrokenCheckExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs acdserve")
	}
	var stdout, stderr bytes.Buffer
	code := runAll(options{workload: "ingest-durable", seed: 1, seconds: 1, repeat: 1, withhold: true}, &stdout, &stderr)
	out := stdout.String()
	if code == 0 {
		t.Errorf("exit 0 with a failing check\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s%s", err, out, stderr.String())
	}
	if res.Correct == nil || *res.Correct {
		t.Error("correct=true with a failing check")
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed on a failed run, want all %d", len(res.Metrics), len(endToEnd))
	}
	if !strings.Contains(out, "CHECK FAILED") {
		t.Error("the failed check is not named in the output")
	}
	if n := liveChildren(); n != 0 {
		t.Errorf("%d acdserve children still alive", n)
	}
}

// TestRepeatAndCompare runs the two workloads whose counts must repeat
// exactly twice on one seed, then lets compare judge the run against
// itself (no regression, exact counts equal) and against a doctored
// copy (regression, non-zero exit).
func TestRepeatAndCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs acdserve")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	for _, w := range []string{"crowd-loop", "batch-dedup"} {
		file := filepath.Join(dir, w+".json")
		code, _, out := runBench(t, "-workload", w, "-seconds", "1", "-repeat", "2", "-json", file)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w, code, out)
		}
		if !strings.Contains(out, "spread") {
			t.Errorf("%s: -repeat printed no spread table\n%s", w, out)
		}
		by, err := loadResults(file)
		if err != nil {
			t.Fatal(err)
		}
		runs := by[w]
		if len(runs) != 2 {
			t.Fatalf("%s: %d runs recorded", w, len(runs))
		}
		if runs[0].PlanHash != runs[1].PlanHash {
			t.Errorf("%s: two runs of one seed drew different inputs", w)
		}
		for _, d := range endToEnd {
			if d.Exact && runs[0].Metrics[d.Name] != runs[1].Metrics[d.Name] {
				t.Errorf("%s: %s = %v then %v on the same seed", w, d.Name, runs[0].Metrics[d.Name], runs[1].Metrics[d.Name])
			}
		}
		if w == "crowd-loop" {
			if err := os.Rename(file, a); err != nil {
				t.Fatal(err)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"compare", a, a}, &stdout, &stderr); code != 0 {
		t.Errorf("compare of a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "== crowd-loop") || !strings.Contains(stdout.String(), "equal") {
		t.Errorf("compare printed no crowd-loop block with exact counts:\n%s", stdout.String())
	}

	by, err := loadResults(a)
	if err != nil {
		t.Fatal(err)
	}
	var doctored []*result
	for _, r := range by["crowd-loop"] {
		r.Metrics["crowd_pairs"]++ // an exact count that moved
		r.Metrics["wall_s"] *= 1.5 // far beyond the bound
		r.Metrics["f1"] -= 0.02    // beyond the absolute bound
		doctored = append(doctored, r)
	}
	data, _ := json.Marshal(doctored)
	b := filepath.Join(dir, "b.json")
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"compare", a, b}, &stdout, &stderr); code != 1 {
		t.Errorf("compare against a regressed copy: exit %d, want 1\n%s", code, stdout.String())
	}
	for _, metric := range []string{"crowd_pairs", "wall_s", "f1"} {
		re := regexp.MustCompile(`(?m)^\s+` + metric + `\s.*REGRESSION$`)
		if !re.MatchString(stdout.String()) {
			t.Errorf("compare did not flag %s:\n%s", metric, stdout.String())
		}
	}

	// A gate must not pass by checking nothing: a B that lacks A's
	// workload, or shares none with it, is a regression.
	batch := filepath.Join(dir, "batch-dedup.json")
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{batch, empty} {
		stdout.Reset()
		if code := run([]string{"compare", a, other}, &stdout, &stderr); code != 1 {
			t.Errorf("compare against %s, which lacks crowd-loop: exit %d, want 1\n%s", filepath.Base(other), code, stdout.String())
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to the one the
// driver uses: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 of ten values = %v, want the largest", p)
	}
}
