package experiments

import (
	"math"
	"time"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/market"
)

// This file is the marketplace cost experiment: on each Table 3
// dataset, the full ACD pipeline runs against three marketplace
// configurations and the figure of merit is cost per F1 point — cents
// spent divided by the F1 achieved. The expensive accurate fleet and
// the cheap noisy fleet are the single-channel baselines (each is a
// pure passthrough, identical to wiring its answer set directly into
// the session); the mixed fleet routes every question by information
// value per cent across both paid channels plus the free machine
// classifier, packs confidence-ordered HITs, and short-circuits
// transitively implied pairs. The claim under test: heterogeneous
// routing buys (nearly) the expensive fleet's accuracy at a fraction of
// its cost.

// MarketArm is one marketplace configuration's averaged outcome.
type MarketArm struct {
	// Name identifies the arm: "careful-only", "fast-only", "mixed".
	Name string
	// F1, Precision and Recall are the clustering quality (averaged
	// over Repeats runs).
	F1        float64
	Precision float64
	Recall    float64
	// Cents is the average marketplace spend; Pairs the average number
	// of questions the session issued.
	Cents float64
	Pairs float64
	// ShortCircuited is the average number of questions answered for
	// free by transitive inference.
	ShortCircuited float64
	// CostPerF1 is Cents / F1 — the experiment's figure of merit.
	CostPerF1 float64
	// Spend breaks the average spend down by backend id.
	Spend map[string]float64
}

// CostPerF1Row is one dataset's marketplace comparison.
type CostPerF1Row struct {
	Dataset string
	// FastErr, CarefulErr and MachineErr are the measured calibrated
	// error rates the router was given.
	FastErr    float64
	CarefulErr float64
	MachineErr float64
	Arms       []MarketArm
}

// Marketplace prices: the cheap noisy channel (Answers(3)) at 1¢ per
// 20-pair HIT, the expensive accurate channel (Answers(5)) at 6¢ per
// 10-pair HIT — the same 12× per-question price gap as the default
// fleet spec.
const (
	fastCentsPerHIT    = 1
	fastPairsPerHIT    = 20
	carefulCentsPerHIT = 6
	carefulPairsPerHIT = 10
)

// CostPerF1 runs the marketplace comparison on one instance.
func CostPerF1(inst *Instance) CostPerF1Row {
	truth := inst.Data.Truth()
	truthFn := inst.Data.TruthFn()
	row := CostPerF1Row{
		Dataset:    inst.Data.Name,
		FastErr:    inst.Answers(3).ErrorRate(),
		CarefulErr: inst.Answers(5).ErrorRate(),
	}
	wrong := 0
	for _, p := range inst.Cands.Pairs {
		if (inst.Cands.Score(p.Pair) > 0.5) != truthFn(p.Pair) {
			wrong++
		}
	}
	row.MachineErr = float64(wrong) / float64(len(inst.Cands.Pairs))

	fast := func() market.Backend {
		return market.Backend{
			ID: "fast", Source: inst.Answers(3),
			CentsPerHIT: fastCentsPerHIT, PairsPerHIT: fastPairsPerHIT,
			ErrorRate: row.FastErr, Workers: 3,
		}
	}
	careful := func() market.Backend {
		return market.Backend{
			ID: "careful", Source: inst.Answers(5),
			CentsPerHIT: carefulCentsPerHIT, PairsPerHIT: carefulPairsPerHIT,
			ErrorRate: row.CarefulErr, Workers: 5, Latency: 2 * time.Millisecond,
		}
	}
	machine := func() market.Backend {
		return market.Backend{ID: "machine", Machine: true, ErrorRate: row.MachineErr}
	}

	arm := func(name string, cfg func() market.Config) MarketArm {
		out := MarketArm{Name: name, Spend: map[string]float64{}}
		for r := 0; r < Repeats; r++ {
			c := cfg()
			c.Seed = int64(r) + 1
			m := market.New(c)
			if recorder != nil {
				m.SetRecorder(recorder)
			}
			res := core.ACD(inst.Cands, m, core.Config{Seed: int64(r) + 1})
			e := cluster.Evaluate(res.Clusters, truth)
			out.F1 += e.F1
			out.Precision += e.Precision
			out.Recall += e.Recall
			out.Cents += float64(res.Stats.Cents)
			out.Pairs += float64(res.Stats.Pairs)
			for _, ch := range m.Ledger() {
				if ch.Backend == market.ChargeInferred {
					out.ShortCircuited++
					continue
				}
				out.Spend[ch.Backend] += ch.Cents
			}
		}
		out.F1 /= Repeats
		out.Precision /= Repeats
		out.Recall /= Repeats
		out.Cents /= Repeats
		out.Pairs /= Repeats
		out.ShortCircuited /= Repeats
		for id := range out.Spend {
			out.Spend[id] /= Repeats
		}
		if out.F1 > 0 {
			out.CostPerF1 = out.Cents / out.F1
		} else {
			out.CostPerF1 = math.Inf(1)
		}
		return out
	}

	// The single-channel baselines are passthrough configurations:
	// arrival order, no short-circuiting, no routing alternatives — the
	// exact question stream the direct pipeline issues, priced at the
	// channel's rate.
	row.Arms = append(row.Arms, arm("careful-only", func() market.Config {
		return market.Config{Backends: []market.Backend{careful()}, BudgetCents: market.Unlimited}
	}))
	row.Arms = append(row.Arms, arm("fast-only", func() market.Config {
		return market.Config{Backends: []market.Backend{fast()}, BudgetCents: market.Unlimited}
	}))
	row.Arms = append(row.Arms, arm("mixed", func() market.Config {
		return market.Config{
			Backends:     []market.Backend{fast(), careful(), machine()},
			BudgetCents:  market.Unlimited,
			Order:        market.OrderConfidence,
			ShortCircuit: true,
			Prior:        inst.Cands.Score,
		}
	}))
	return row
}

// CostPerF1All runs the marketplace comparison on every dataset.
func CostPerF1All(seed int64) []CostPerF1Row {
	rows := make([]CostPerF1Row, 0, len(DatasetNames))
	for _, name := range DatasetNames {
		rows = append(rows, CostPerF1(MustInstance(name, seed)))
	}
	return rows
}
