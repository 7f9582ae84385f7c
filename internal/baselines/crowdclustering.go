package baselines

import (
	"math/rand"
	"sort"

	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/machine"
	"acd/internal/pruning"
	"acd/internal/record"
)

// Crowdclustering implements the fifth crowd-based method the paper
// reviews (Section 2.2, [25]). The paper excludes it from the
// experimental figures because it targets data categorization rather
// than deduplication; it is implemented here for completeness, with
// exactly the failure mode Section 2.2 describes.
//
// The method: (1) draw `subsets` random subsets of `subsetSize` records;
// (2) have crowd workers cluster each subset (simulated by majority
// votes on the subset's candidate pairs plus transitive closure —
// workers see the whole subset at once, so their partition is
// internally consistent); (3) generalize: learn the machine-similarity
// threshold that best agrees with the crowd's within-subset decisions,
// then cluster all of R by average-linkage at that threshold.
//
// When entities have few duplicates (Restaurant, Product), random
// subsets contain almost no duplicate pairs, the learned threshold is
// fit to noise, and accuracy collapses — the paper's critique.
func Crowdclustering(cands *pruning.Candidates, answers crowd.Source, subsets, subsetSize int, seed int64) Result {
	sess := crowd.NewSession(answers)
	rng := rand.New(rand.NewSource(seed))
	n := cands.N

	// Step 1-2: crowd-cluster each subset; collect labeled pairs
	// (machine score, crowd duplicate decision).
	var observations []labeledPair
	for s := 0; s < subsets; s++ {
		size := subsetSize
		if size > n {
			size = n
		}
		perm := rng.Perm(n)[:size]
		members := make([]record.ID, size)
		for i, v := range perm {
			members[i] = record.ID(v)
		}
		// The subset's candidate pairs go to the crowd in one batch (one
		// clustering HIT).
		var pairs []record.Pair
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				p := record.MakePair(members[i], members[j])
				if cands.Contains(p) {
					pairs = append(pairs, p)
				}
			}
		}
		fc := sess.Ask(pairs)
		positive := cluster.Scores{}
		for i, p := range pairs {
			positive[p] = fc[i]
		}
		// The worker's subset partition: transitive closure of the
		// positive answers (a worker physically groups the records).
		part := machine.Components(n, positive, 0.5)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				p := record.MakePair(members[i], members[j])
				observations = append(observations, labeledPair{
					f:   cands.Score(p),
					dup: part.Same(p.Lo, p.Hi),
				})
			}
		}
	}

	// Step 3: learn the threshold minimizing disagreement with the
	// observations, scanning candidate thresholds at observation scores.
	threshold := learnThreshold(observations)
	c := machine.Agglomerative(n, cands.Machine(), threshold)
	return Result{Clusters: c, Stats: sess.Stats()}
}

// labeledPair is one within-subset observation: a pair's machine score
// and the crowd's duplicate decision for it.
type labeledPair struct {
	f   float64
	dup bool
}

// learnThreshold returns the machine-score cutoff that minimizes
// classification disagreement with the labeled pairs; with no
// observations (or none positive) it falls back to 0.5.
func learnThreshold(obs []labeledPair) float64 {
	if len(obs) == 0 {
		return 0.5
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].f < obs[j].f })
	totalDup := 0
	for _, o := range obs {
		if o.dup {
			totalDup++
		}
	}
	if totalDup == 0 {
		return 0.5
	}
	// Sweeping the cutoff from above all scores downward: errors =
	// duplicates below cutoff + non-duplicates at/above cutoff.
	bestErrors := totalDup // cutoff above everything: all dups misclassified
	best := 1.0
	dupBelow, nonAbove := totalDup, 0
	for i := len(obs) - 1; i >= 0; i-- {
		if obs[i].dup {
			dupBelow--
		} else {
			nonAbove++
		}
		if errors := dupBelow + nonAbove; errors < bestErrors {
			bestErrors = errors
			// The cutoff sits just below obs[i].f.
			best = obs[i].f - 1e-9
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}
