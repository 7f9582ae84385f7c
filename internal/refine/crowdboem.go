package refine

import (
	"slices"

	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/pruning"
	"acd/internal/record"
)

// CrowdBOEM adapts the BOEM postprocessor [22] to the crowd setting in
// the direct way Section 5.1 argues against: each best-one-element-move
// iteration must know the crowd score of every candidate pair between a
// movable record and the clusters it could move to, so all of those
// still-unknown pairs are crowdsourced up front, one batch per
// iteration. The algorithm then applies the move with the largest exact
// Λ′ reduction, stopping at a local optimum.
//
// It exists as the cost baseline for the refinement ablation: it reaches
// quality comparable to PC-Refine but crowdsources a large fraction of
// the candidate set, demonstrating why the paper replaces it with the
// benefit-cost-driven operations of Section 5.
func CrowdBOEM(c *cluster.Clustering, cands *pruning.Candidates, sess *crowd.Session) *cluster.Clustering {
	// Candidate adjacency: only records connected by a candidate pair
	// can profitably share a cluster. Record r's incident candidate pairs
	// are incident[off[r]:off[r+1]], with adj holding the far endpoints.
	off, incident, adj := incidence(cands, c.Len())

	fc := func(a, b record.ID) float64 {
		p := record.MakePair(a, b)
		if v, ok := sess.Known(p); ok {
			return v
		}
		return 0 // pruned pairs have f_c = 0; unknown candidates are resolved below
	}

	queued := make([]int, len(cands.Pairs)) // iteration that queued pair i, 0 = never
	var targets []int
	for iter := 1; ; iter++ {
		// Resolve every pair a move-gain computation could touch: for
		// each record, its candidate pairs into its own cluster and into
		// adjacent clusters.
		var unknown []record.Pair
		for r := record.ID(0); int(r) < c.Len(); r++ {
			for k := off[r]; k < off[r+1]; k++ {
				i := incident[k]
				if queued[i] == iter {
					continue
				}
				p := cands.Pairs[i].Pair
				if _, ok := sess.Known(p); ok {
					continue
				}
				queued[i] = iter
				unknown = append(unknown, p)
			}
		}
		sess.Ask(unknown)
		if sess.Err() != nil {
			break // cancelled campaign: stop at the current clustering
		}

		// Best single-record move, gains computed over exact scores.
		moveGain := func(r record.ID, target int) float64 {
			gain := 0.0
			for _, m := range c.Members(c.Assignment(r)) {
				if m != r {
					gain += 1 - 2*fc(r, m)
				}
			}
			if target >= 0 {
				for _, m := range c.Members(target) {
					gain -= 1 - 2*fc(r, m)
				}
			}
			return gain
		}
		bestGain := 1e-12
		var bestR record.ID
		bestTarget := -2
		consider := func(r record.ID, t int) {
			if g := moveGain(r, t); g > bestGain {
				bestGain, bestR, bestTarget = g, r, t
			}
		}
		// Gains come in multiples of 2/workers, so ties are common: visit
		// records in id order and each record's targets in a fixed order
		// — the split (−1) first, then adjacent clusters by ascending
		// index — so the first strictly-best move wins on every run.
		for r := record.ID(0); int(r) < c.Len(); r++ {
			home := c.Assignment(r)
			if c.Size(home) > 1 {
				consider(r, -1)
			}
			targets = targets[:0]
			for _, nb := range adj[off[r]:off[r+1]] {
				if t := c.Assignment(nb); t != home {
					targets = append(targets, t)
				}
			}
			slices.Sort(targets)
			for _, t := range slices.Compact(targets) {
				consider(r, t)
			}
		}
		if bestTarget == -2 {
			break
		}
		newIdx := c.Split(bestR)
		if bestTarget >= 0 {
			c.Merge(bestTarget, newIdx)
		}
	}
	c.Compact()
	return c
}
