// Package obs is the repository's observability layer: dependency-free,
// race-safe metrics and tracing threaded through every phase of the ACD
// pipeline. It exists because the paper's claims are quantitative —
// wasted pairs stay under ε·|P_k| (Equation 4, Lemma 3), refinement
// spends its budget T = N_m/x on the best benefit-cost ratios, every
// method is compared by crowdsourced pairs and iterations (Figures 5–8)
// — and a Recorder makes each of those quantities observable on any run
// rather than only in dedicated experiments.
//
// A Recorder holds four kinds of instruments, all safe for concurrent
// use and all nil-safe (methods on a nil *Recorder are no-ops, so
// instrumentation sites never guard):
//
//   - counters: monotonically increasing int64s (Count/Counter), e.g.
//     "crowd/questions_answered";
//   - gauges: last-write-wins float64s (Gauge/GaugeValue), e.g.
//     "pivot/epsilon";
//   - histograms: value distributions with count/sum/min/max and
//     quantile estimates (Observe), e.g. "pivot/batch_k";
//   - phases: wall-clock timers started with StartPhase and stopped by
//     the returned func, e.g. "pruning/probe".
//
// Snapshot returns an immutable Metrics view that renders as a text
// table (WriteText), JSON (WriteJSON), or merges with other snapshots
// (Merge). SetTrace attaches a JSONL event sink for per-round streams
// ("pivot.round", "refine.batch", "crowd.iteration"); Tracing lets hot
// paths skip payload construction when no sink is attached.
//
// Metric names are namespaced by pipeline phase ("pruning/", "pivot/",
// "refine/", "crowd/", "machine/"); the constants live next to the code
// that emits them (internal/blocking, internal/core, internal/refine,
// internal/crowd, internal/machine) and the README's metrics reference
// table documents them all in one place.
//
// CLIFlags gives every command the same observability surface
// (-metrics, -metrics-json, -trace, -metrics-http); the HTTP endpoint
// serves the live snapshot at /metrics and stdlib expvar at /debug/vars.
package obs
