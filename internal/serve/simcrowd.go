package serve

import (
	"hash/fnv"

	"acd/internal/crowd"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/record"
)

// marketSource builds the marketplace source behind Config.Fleet: the
// parsed fleet's backends all answer from the same deterministic
// pseudo-crowd, PairScore(seed), each with its own calibrated noise and
// — for specs with spike=/drop=/fault= options — real injected latency
// and faults on the wall clock, so the resolve handler actually
// waits and GET-side snapshot reads can be measured against a server
// whose resolve path is crawling. The router's spend and per-backend
// accounting flow into rec as market/* and crowd/backend/* metrics,
// which GET /metrics then serves. budget <= 0 means unlimited.
func marketSource(spec string, budget int, seed int64, rec *obs.Recorder) (crowd.Source, error) {
	backends, err := market.Fleet(spec, PairScore(seed), seed)
	if err != nil {
		return nil, err
	}
	m := market.New(market.Config{
		Backends:     backends,
		BudgetCents:  market.FlagBudget(budget),
		Order:        market.OrderConfidence,
		ShortCircuit: true,
		Seed:         seed,
	})
	m.SetRecorder(rec)
	return m, nil
}

// PairScore returns the deterministic pseudo-crowd answer function: a
// stable hash of (seed, pair) mapped to [0,1). The same pair always
// gets the same answer, so repeated runs and the timeout fallback agree
// with the primary path.
func PairScore(seed int64) func(record.Pair) float64 {
	return func(p record.Pair) float64 {
		h := fnv.New64a()
		var buf [24]byte
		put := func(off int, v uint64) {
			for i := 0; i < 8; i++ {
				buf[off+i] = byte(v >> (8 * i))
			}
		}
		put(0, uint64(seed))
		put(8, uint64(p.Lo))
		put(16, uint64(p.Hi))
		h.Write(buf[:])
		return float64(h.Sum64()%1_000_000) / 1_000_000
	}
}
