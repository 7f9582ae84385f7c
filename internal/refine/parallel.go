package refine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// scoreAll fans the re-scoring of a dirty op list over a worker pool.
// Scoring an op is a pure read of the clustering, the candidate set, the
// session's answer map and the histogram, so ops score independently;
// results land in an index-addressed slice and the score cache is
// updated serially in input order afterwards, so the outcome is
// byte-identical to the sequential loop (the same pattern as the
// parallel similarity join in internal/blocking).
const (
	// parallelScoreMin is the uncached-op count below which scoreAll
	// stays sequential: the drain loop's per-apply dirty sets are tiny
	// and goroutine fan-out would cost more than it saves. Full
	// re-enumerations after a crowd batch (every op dirty) clear it.
	parallelScoreMin = 256
	// scoreChunk is the work-queue chunk size; small enough to rebalance
	// around expensive merge scores of large clusters.
	scoreChunk = 16
)

// scoreOne computes an op's score from scratch against the given
// estimate scratch buffer; the caller must have run ensureEstimates.
func (st *state) scoreOne(o Op, sc *estScratch) scoredOp {
	if o.Kind == SplitOp {
		return st.scoreSplitWith(sc, o.Record, o.A)
	}
	return st.scoreMergeWith(sc, o.A, o.B)
}

// scoreAll returns the scores of ops in order, reusing still-valid
// cached scores and recomputing the rest — in parallel when the uncached
// tail is large enough to pay for the pool.
func (st *state) scoreAll(ops []Op) []scoredOp {
	st.ensureEstimates() // serially, before the pool reads the cache
	out := make([]scoredOp, len(ops))
	todo := make([]int, 0, len(ops))
	for i, o := range ops {
		if s, ok := st.cachedScore(o); ok {
			out[i] = s
		} else {
			todo = append(todo, i)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if len(todo) >= parallelScoreMin && workers > 1 {
		if max := (len(todo) + scoreChunk - 1) / scoreChunk; workers > max {
			workers = max
		}
		// Pre-grow the per-worker scratches serially; each goroutine then
		// owns st.scratches[w] exclusively.
		for w := 0; w < workers; w++ {
			st.scratchFor(w)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(sc *estScratch) {
				defer wg.Done()
				for {
					hi := int(cursor.Add(scoreChunk))
					lo := hi - scoreChunk
					if lo >= len(todo) {
						return
					}
					if hi > len(todo) {
						hi = len(todo)
					}
					for _, i := range todo[lo:hi] {
						out[i] = st.scoreOne(ops[i], sc)
					}
				}
			}(st.scratches[w])
		}
		wg.Wait()
	} else {
		sc := st.scratchFor(0)
		for _, i := range todo {
			out[i] = st.scoreOne(ops[i], sc)
		}
	}
	// Serial cache update in input order keeps the memo deterministic.
	for _, i := range todo {
		st.storeScore(out[i])
	}
	return out
}
