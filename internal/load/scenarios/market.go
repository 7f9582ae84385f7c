package scenarios

import (
	"acd/internal/load"
	"acd/internal/market"
)

// The marketplace scenarios drive /resolve against a heterogeneous
// crowd fleet (internal/market) instead of a single simulated source:
// mixed-fleet measures budget-aware routing under a mid-run price
// spike on the cheap backend, and backend-outage measures the fault
// path when the router's preferred backend stops answering (every
// question drops, forcing the retry/degrade machinery). Both run the
// resolve-heavy workload shape the degraded-crowd scenario uses, and
// runWorkload folds the router's accounting into their reports.

// runMixedFleet routes resolve questions across the default
// heterogeneous fleet while the cheap backend's price spikes 8× partway
// through the run: the router must shift purchases toward the
// now-relatively-cheaper accurate channel (or the free machine
// fallback) without stalling resolves. The spike lands early enough
// that both price regimes fall inside the measured window.
func runMixedFleet(o Options) (*load.Report, error) {
	after := 400
	if o.Smoke {
		after = 40
	}
	return runWorkload(o, "mixed-fleet", market.DefaultFleetSpec,
		[]market.Spike{{Backend: "fast", After: after, Factor: 8}},
		func(c *load.Config) { resolveHeavy(o, c) })
}

// runBackendOutage is the marketplace fault drill: the cheap backend
// the router prefers drops every question (ChaosSource drop ≈ 1), so
// each purchase from it rides the retry-then-degrade path while the
// careful backend and the machine fallback keep answers flowing. The
// measurement of interest is how much the outage stretches /resolve
// while snapshot reads stay flat — the degraded-crowd question, asked
// of the marketplace's per-backend fault isolation.
func runBackendOutage(o Options) (*load.Report, error) {
	// The dropped backend's retry deadline is pinned tight: each of its
	// questions burns (timeout × attempts) before degrading, and with
	// the default crowd-scale deadline a 98% outage would stretch every
	// resolve past the measured window.
	spec := "fast:1:20:0.12:drop=0.98:timeout=1ms;careful:6:10:0.02:lat=1ms;machine:0:0:0.35:machine"
	if o.Smoke {
		spec = "fast:1:20:0.12:drop=0.98:timeout=250us;careful:6:10:0.02;machine:0:0:0.35:machine"
	}
	return runWorkload(o, "backend-outage", spec, nil, func(c *load.Config) { resolveHeavy(o, c) })
}
