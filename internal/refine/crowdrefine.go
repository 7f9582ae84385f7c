package refine

import (
	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/pruning"
	"acd/internal/record"
)

// CrowdRefine runs Algorithm 4, the sequential cluster refinement: it
// repeatedly applies the best known-positive operation for free, and when
// none exists it picks the operation with the best estimated benefit-cost
// ratio, crowdsources that operation's unknown pairs, and applies the
// operation if its exact benefit is positive. It terminates when the best
// ratio is non-positive.
//
// The clustering c is refined in place and returned (compacted). The
// session must be the one used during cluster generation: its known-pair
// set is the paper's A, and every new question is charged to it.
func CrowdRefine(c *cluster.Clustering, cands *pruning.Candidates, sess *crowd.Session) *cluster.Clustering {
	st := newState(c, cands, sess)
	rec := sess.Recorder()
	for {
		st.applyKnownPositive()

		ranked := sortByRatio(st.enumerate())
		if len(ranked) == 0 {
			break // best ratio ≤ 0 (Lines 10-11)
		}
		chosen := ranked[0]
		rec.Count(MetricOpsEnumerated, int64(len(ranked)))
		rec.Count(MetricBatches, 1)
		rec.Count(MetricOpsPacked, 1)
		rec.Observe(MetricRatio, chosen.ratio())
		// Crowdsource the unknown pairs of the chosen operation
		// (Line 12) and recompute its benefit exactly. A failed batch
		// (cancelled campaign) stops the refinement cleanly.
		sess.Ask(st.unknownPairs(chosen.op))
		if sess.Err() != nil {
			break
		}
		st.rebuildHistogram()
		if b := st.exactBenefit(chosen.op); b > 0 {
			st.apply(chosen.op) // Lines 13-14
			rec.Count(MetricOpsApplied, 1)
		}
	}
	c.Compact()
	return c
}

// collectUnknown gathers the distinct unknown pairs across a set of
// operations, preserving first-seen order.
func collectUnknown(st *state, ops []scoredOp) []record.Pair {
	seen := make(map[record.PairKey]struct{})
	var out []record.Pair
	for _, s := range ops {
		for _, p := range st.unknownPairs(s.op) {
			if _, dup := seen[p.Key()]; !dup {
				seen[p.Key()] = struct{}{}
				out = append(out, p)
			}
		}
	}
	return out
}
