package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// series collects one metric's values over the runs of one workload.
func series(runs []*result, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// spread is the distance between the quartiles as a share of the
// median — the steadiness figure the benchmark's bounds are set from.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// printSpread prints median, quartiles and relative spread per metric
// over the runs of one workload.
func printSpread(w io.Writer, name string, runs []*result, trace bool) {
	fmt.Fprintf(w, "== %s: %d runs\n", name, len(runs))
	fmt.Fprintf(w, "  %-32s %14s %14s %14s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, d := range declared(trace) {
		xs := series(runs, d.Name)
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-32s %14.4f %14.4f %14.4f %7.2f%%  %s\n", d.Name, median(xs), q1, q3, 100*spread(xs), d.Unit)
	}
}

// loadResults reads a file written by -json and groups it by workload.
func loadResults(path string) (map[string][]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*result
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]*result)
	for _, r := range all {
		if r.Trace {
			continue // bounds apply to end-to-end figures only
		}
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

// sameSeeds reports whether two sets of runs used the same seeds, run
// for run; only then must exact counts be equal.
func sameSeeds(a, b []*result) bool {
	seeds := func(rs []*result) []int64 {
		s := make([]int64, len(rs))
		for i, r := range rs {
			s[i] = r.Seed
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	sa, sb := seeds(a), seeds(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// verdict applies one metric's bound to two series (a = base, b = new).
// worse is the relative worsening of b's median (negative = better).
func verdict(d metricDecl, a, b []float64, exact bool) (worse float64, word string) {
	ma, mb := median(a), median(b)
	delta := mb - ma
	if d.Better == "higher" {
		delta = -delta
	}
	if ma != 0 && !d.Absolute {
		worse = delta / math.Abs(ma)
	} else {
		worse = delta
	}
	switch {
	case exact && d.Exact:
		// Same seeds, so a count that repeats exactly must not move.
		switch {
		case ma == mb:
			return worse, "equal"
		case delta > 0:
			return worse, "REGRESSION"
		default:
			return worse, "changed"
		}
	case worse > d.Bound:
		// Wider run-to-run spread than the bound: the medians cannot
		// tell, unless every new run is worse than every base run.
		if math.Max(spread(a), spread(b)) > d.Bound && !allWorse(d, a, b) {
			return worse, "unresolved"
		}
		return worse, "REGRESSION"
	case worse < -d.Bound:
		return worse, "improved"
	default:
		return worse, "ok"
	}
}

// allWorse reports whether every value of b is worse than every value
// of a.
func allWorse(d metricDecl, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if d.Better == "higher" {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// exactCounts names the workloads whose Exact metrics repeat exactly
// for one seed; with two concurrent clients ids follow the interleaving.
var exactCounts = map[string]bool{"batch-dedup": true, "crowd-loop": true}

// runCompare implements `benchmark compare A.json B.json`: one block
// per workload, one row per end-to-end metric, and a non-zero exit when
// any metric got worse by more than its bound, a workload of A is
// missing from B, or the two files share no workload.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no untraced runs", args[0])
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	regressions, shared := 0, 0
	for _, name := range workloadNames {
		ra, rb := a[name], b[name]
		if len(ra) == 0 {
			continue // nothing to hold B to
		}
		if len(rb) == 0 {
			fmt.Fprintf(stdout, "== %s: A %d runs, B none: REGRESSION\n", name, len(ra))
			regressions++
			continue
		}
		shared++
		// Counts repeat exactly only where one sequential client (or the
		// library call) fixes the order of everything.
		exact := sameSeeds(ra, rb) && exactCounts[name]
		fmt.Fprintf(stdout, "== %s: A %d runs, B %d runs\n", name, len(ra), len(rb))
		fmt.Fprintf(stdout, "  %-18s %14s %8s %14s %8s %9s %7s  %s\n", "metric", "A median", "A spread", "B median", "B spread", "worse by", "bound", "verdict")
		for _, d := range endToEnd {
			xa, xb := series(ra, d.Name), series(rb, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(stdout, "  %-18s missing on one side: REGRESSION\n", d.Name)
				regressions++
				continue
			}
			worse, word := verdict(d, xa, xb, exact)
			if word == "REGRESSION" {
				regressions++
			}
			bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
			by := fmt.Sprintf("%+.2f%%", 100*worse)
			if d.Absolute {
				bound, by = fmt.Sprintf("%.3f", d.Bound), fmt.Sprintf("%+.4f", worse)
			}
			if exact && d.Exact {
				bound = "exact"
			}
			if len(d.On) > 0 && !slices.Contains(d.On, name) {
				word += " (probe)"
			}
			fmt.Fprintf(stdout, "  %-18s %14.4f %7.2f%% %14.4f %7.2f%% %9s %7s  %s\n",
				d.Name, median(xa), 100*spread(xa), median(xb), 100*spread(xb), by, bound, word)
		}
		for _, r := range rb {
			if !r.correct() {
				fmt.Fprintf(stdout, "  B run with seed %d failed its checks: REGRESSION\n", r.Seed)
				regressions++
			}
		}
	}
	if shared == 0 {
		fmt.Fprintln(stdout, "A and B share no workload: nothing was compared")
		return 1
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "no regression")
	return 0
}
