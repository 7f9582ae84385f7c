// The batch similarity joins. Both fan a probe side out over a worker
// pool, and both return the same output at every worker count — the
// same pairs, the same scores, in the same order — by structure, not by
// luck:
//
//   - what the workers share (the index, the texts) is built before the
//     fan-out and only read during it;
//   - each pair belongs to exactly one probing record (its larger
//     position), so no pair is emitted twice and workers never
//     coordinate;
//   - the pairs of a chunk of probing records land in that chunk's own
//     slot, and the slots are concatenated in chunk order after all
//     workers finish (gather), so which worker ran which chunk shows
//     nowhere — not even in the order the sort receives its input in,
//     and with it the work the sort does;
//   - the result goes through one total-order sort (SortScored).
//
// One worker runs the same code as many: there is no separate
// sequential implementation to keep equal to the parallel one.
package blocking

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"acd/internal/obs"
	"acd/internal/record"
	"acd/internal/similarity"
)

// normalizeParallelism maps the shared Parallelism knob (see
// pruning.Options) onto a worker count: values <= 0 mean "auto" (one
// worker per usable CPU), n >= 1 requests exactly n workers.
func normalizeParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// chunk sizes for the work queues: small enough to rebalance when chunk
// costs are skewed (late rows of a triangular scan, records probing
// long posting lists), large enough to keep the atomic cursor off the
// hot path.
const (
	probeChunk    = 64
	naiveRowChunk = 16
)

// gather calls emit for every row of [0, n) from the given number of
// worker goroutines and returns what the rows appended, in row order.
// Workers drain fixed-size chunks of rows from a shared cursor; a chunk
// fills its worker's reused scratch buffer and leaves an exact-size
// copy in the chunk's slot, so no buffer grows past one chunk's output
// and the result is laid out the same whatever the scheduling was. emit
// receives the worker index for per-worker state.
func gather(n, workers, chunk int, emit func(worker, row int, dst []ScoredPair) []ScoredPair) []ScoredPair {
	slots := make([][]ScoredPair, (n+chunk-1)/chunk)
	workers = min(workers, len(slots))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var scratch []ScoredPair
			for {
				c := int(cursor.Add(1)) - 1
				if c >= len(slots) {
					return
				}
				scratch = scratch[:0]
				for i := c * chunk; i < min(n, (c+1)*chunk); i++ {
					scratch = emit(w, i, scratch)
				}
				slots[c] = slices.Clone(scratch)
			}
		}(w)
	}
	wg.Wait()
	return slices.Concat(slots...)
}

// JaccardJoin returns all pairs of records whose token Jaccard
// similarity strictly exceeds tau, with their scores, sorted by
// descending score with ties broken by pair order. Pairs name records
// by position in the slice. It is JaccardJoinParallel with one worker.
func JaccardJoin(records []record.Record, tau float64) []ScoredPair {
	return JaccardJoinParallelObs(records, tau, 1, nil)
}

// JaccardJoinParallel is JaccardJoin with the probe fanned out over a
// worker pool sized by normalizeParallelism. Output is byte-identical
// at every parallelism.
func JaccardJoinParallel(records []record.Record, tau float64, parallelism int) []ScoredPair {
	return JaccardJoinParallelObs(records, tau, parallelism, nil)
}

// JaccardJoinParallelObs is JaccardJoinParallel reporting the build and
// probe phase timings and the funnel counters to a recorder (nil
// disables recording; output is identical either way).
func JaccardJoinParallelObs(records []record.Record, tau float64, parallelism int, rec *obs.Recorder) []ScoredPair {
	n := len(records)
	workers := normalizeParallelism(parallelism)

	doneIndex := rec.StartPhase(PhaseIndex)
	join := newBatchJoin(records, tau)
	doneIndex()

	doneProbe := rec.StartPhase(PhaseProbe)
	probers := make([]prober, workers)
	out := gather(n, workers, probeChunk, func(w, i int, dst []ScoredPair) []ScoredPair {
		p := &probers[w]
		if p.overlap == nil {
			p.overlap = make([]int32, n)
		}
		return join.probe(int32(i), p, dst)
	})
	doneProbe()

	var verified int64
	for w := range probers {
		verified += probers[w].verified
	}
	SortScored(out)
	rec.Count(MetricPairsVerified, verified)
	rec.Count(MetricPairsEmitted, int64(len(out)))
	return out
}

// prober is one worker's private state: its probe scratch and how many
// candidates it finished by merge — what MetricPairsVerified counts.
type prober struct {
	counter
	verified int64
}

// batchJoin is the exact batch join's state: the representation
// IncrementalIndex maintains online, filled from all records at once,
// re-keyed so that a small token id means a rare token, and from then
// on only read — every probing worker shares one.
//
// A pair scoring above tau shares at least a tokens with a probing
// record x of la tokens, where a is the least count with a/la > tau
// (the union holds at least x). x has only a−1 tokens outside its first
// la−a+1 — its prefix — so one shared token is inside it, and probing
// the posting lists of the prefix alone meets every partner. Sorting
// each record's ids rarest first makes those the shortest lists x has.
type batchJoin struct {
	index           // postings keyed by rank once built
	sets  [][]int32 // record -> its token ranks, ascending: rarest first
	need  []int32   // requiredOverlaps(tau, ·)
	tau   float64
}

func newBatchJoin(records []record.Record, tau float64) *batchJoin {
	n := len(records)
	b := &batchJoin{index: newIndex(), sets: make([][]int32, n), tau: tau}
	flat := make([]int32, 0, 8*n) // every record's token ids, back to back
	ends := make([]int, n)
	for i, r := range records {
		flat = b.add(r.Text(), flat)
		ends[i] = len(flat)
	}
	b.ids = nil // ids are about to stop meaning what the map says

	// Rank tokens by ascending document frequency (ties by id, so the
	// order is total) and move both views of the index into rank space.
	byFreq := make([]int32, len(b.postings))
	for t := range byFreq {
		byFreq[t] = int32(t)
	}
	byID := b.postings
	slices.SortFunc(byFreq, func(s, t int32) int {
		if d := len(byID[s]) - len(byID[t]); d != 0 {
			return d
		}
		return int(s - t)
	})
	rank := make([]int32, len(byFreq))
	b.postings = make([][]int32, len(byFreq))
	for r, t := range byFreq {
		rank[t] = int32(r)
		b.postings[r] = byID[t]
	}
	start, maxSize := 0, 0
	for i, end := range ends {
		set := flat[start:end:end]
		for k, t := range set {
			set[k] = rank[t]
		}
		slices.Sort(set)
		b.sets[i] = set
		maxSize = max(maxSize, len(set))
		start = end
	}
	b.need = requiredOverlaps(tau, 2*maxSize)
	return b
}

// probe appends every pair record i forms with an earlier record to
// dst, using the calling worker's prober.
//
// Walking the prefix counts, per earlier record, the prefix tokens it
// holds. A record first met at prefix position k can share at most the
// la−k tokens from there on, and no more than it has; when that is
// below the overlap its size requires it is skipped on the spot, which
// is what keeps a token held by every record from making every pair a
// candidate. After the walk a counted record is dropped if its count
// plus the unwalked suffix still falls short, and otherwise finished by
// an integer merge of the suffix against its own ids.
func (b *batchJoin) probe(i int32, p *prober, dst []ScoredPair) []ScoredPair {
	x := b.sets[i]
	la := int32(len(x))
	a := int32(1)
	for a <= la && !(score(a, la+a) > b.tau) {
		a++
	}
	prefix, suffix := x[:la-a+1], x[la-a+1:] // both empty when nothing can pair with x
	need := b.need[la:]                      // indexed by the partner's size from here on

	overlap, touched := p.overlap, p.touched
	for k, t := range prefix {
		list := b.postings[t]
		earlier, _ := slices.BinarySearch(list, i)
		left := la - int32(k) // tokens of x not yet walked, this one included
		for _, j := range list[:earlier] {
			n := overlap[j]
			if n == 0 {
				if lb := b.sizes[j]; min(left, lb) < need[lb] {
					continue
				}
				touched = append(touched, j)
			}
			overlap[j] = n + 1
		}
	}
	for _, j := range touched {
		n := overlap[j]
		overlap[j] = 0
		lb := b.sizes[j]
		if n+min(int32(len(suffix)), lb-n) < need[lb] {
			continue
		}
		p.verified++
		n += sharedSorted(suffix, b.sets[j])
		if f := score(n, la+lb); f > b.tau {
			dst = append(dst, ScoredPair{Pair: record.MakePair(record.ID(j), record.ID(i)), Score: f})
		}
	}
	p.touched = touched[:0]
	return dst
}

// sharedSorted counts the values ascending slices a and b share,
// merging from their tails: it stops once a is exhausted, so when a is
// the suffix of a probing record the part of b below it is never read.
func sharedSorted(a, b []int32) (n int32) {
	i, j := len(a)-1, len(b)-1
	for i >= 0 && j >= 0 {
		switch {
		case a[i] == b[j]:
			n++
			i--
			j--
		case a[i] > b[j]:
			i--
		default:
			j--
		}
	}
	return n
}

// NaiveJoin computes the same result as JaccardJoin by scanning all
// O(n²) pairs with the given metric (nil means token Jaccard). It exists
// as the correctness oracle for JaccardJoin in tests and as the generic
// path for non-Jaccard metrics. It is NaiveJoinParallel with one worker.
func NaiveJoin(records []record.Record, metric similarity.Metric, tau float64) []ScoredPair {
	return NaiveJoinParallelObs(records, metric, tau, 1, nil)
}

// NaiveJoinParallel is NaiveJoin with the triangular all-pairs scan
// fanned out row-chunk by row-chunk. Output is byte-identical at every
// parallelism.
func NaiveJoinParallel(records []record.Record, metric similarity.Metric, tau float64, parallelism int) []ScoredPair {
	return NaiveJoinParallelObs(records, metric, tau, parallelism, nil)
}

// NaiveJoinParallelObs is NaiveJoinParallel reporting the scan's phase
// timing and the funnel to a recorder (nil disables recording; output
// is identical either way). The naive scan scores every pair, so
// MetricPairsVerified counts the full triangle n·(n−1)/2. Like
// JaccardJoin it names records by position in the slice.
func NaiveJoinParallelObs(records []record.Record, metric similarity.Metric, tau float64, parallelism int, rec *obs.Recorder) []ScoredPair {
	if metric == nil {
		metric = similarity.Jaccard
	}
	n := len(records)
	workers := normalizeParallelism(parallelism)
	texts := make([]string, n)
	for i, r := range records {
		texts[i] = r.Text()
	}
	doneProbe := rec.StartPhase(PhaseProbe)
	out := gather(n, workers, naiveRowChunk, func(_, i int, dst []ScoredPair) []ScoredPair {
		for j := i + 1; j < n; j++ {
			if f := metric(texts[i], texts[j]); f > tau {
				dst = append(dst, ScoredPair{Pair: record.MakePair(record.ID(i), record.ID(j)), Score: f})
			}
		}
		return dst
	})
	doneProbe()
	SortScored(out)
	rec.Count(MetricPairsVerified, int64(n)*int64(n-1)/2)
	rec.Count(MetricPairsEmitted, int64(len(out)))
	return out
}
