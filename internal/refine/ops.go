package refine

import (
	"container/heap"
	"fmt"
	"sort"

	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/histogram"
	"acd/internal/pruning"
	"acd/internal/record"
)

// OpKind distinguishes the two basic operations of Section 5.1.
type OpKind int

const (
	// SplitOp removes one record from its cluster into a fresh singleton.
	SplitOp OpKind = iota
	// MergeOp combines two clusters.
	MergeOp
)

// Op is a candidate refinement operation over specific cluster indices of
// the working clustering. Ops are only meaningful against the clustering
// state they were enumerated from.
type Op struct {
	Kind   OpKind
	Record record.ID // split only: the record to split out
	A, B   int       // A: source/first cluster; B: merge partner
}

// String renders the op for logs and error messages.
func (o Op) String() string {
	if o.Kind == SplitOp {
		return fmt.Sprintf("split(%d from C%d)", o.Record, o.A)
	}
	return fmt.Sprintf("merge(C%d, C%d)", o.A, o.B)
}

// clusters returns the cluster indices o touches, for the independence
// test of Section 5.4.
func (o Op) clusters() [2]int {
	if o.Kind == SplitOp {
		return [2]int{o.A, -1}
	}
	return [2]int{o.A, o.B}
}

// Independent reports whether two operations adjust completely different
// clusters and can therefore be applied simultaneously without side
// effects (Section 5.4).
func Independent(a, b Op) bool {
	ca, cb := a.clusters(), b.clusters()
	for _, x := range ca {
		if x == -1 {
			continue
		}
		for _, y := range cb {
			if y != -1 && x == y {
				return false
			}
		}
	}
	return true
}

// scoredOp is an enumerated operation with its estimated benefit b*(o)
// and crowdsourcing cost c(o). The cost pairs themselves are not
// materialized during scoring — almost every scored op is never
// selected, so allocating its pair list would dominate the refinement
// phase's allocations; unknownPairs reproduces the list on demand for
// the few ops that actually get packed.
type scoredOp struct {
	op    Op
	bStar float64 // estimated benefit (exact when cost == 0)
	cost  int     // c(o) of Equations 7–8
}

// ratio returns the benefit-cost ratio b*(o)/c(o); only meaningful for
// cost > 0 (zero-cost ops are handled through the known-benefit set O⁺).
func (s scoredOp) ratio() float64 { return s.bStar / float64(s.cost) }

// EstimatorMode selects how the refinement phase estimates the crowd
// score of a candidate pair that has not been crowdsourced yet.
type EstimatorMode int

const (
	// HistogramEstimator is the paper's method (Section 5.2): an
	// equi-depth histogram maps machine scores to the average crowd
	// score observed in the same bucket.
	HistogramEstimator EstimatorMode = iota
	// IdentityEstimator uses the machine score directly as the crowd
	// score estimate — the "straightforward solution" of [46, 47] that
	// Section 5.2 improves upon. Available for ablations.
	IdentityEstimator
)

// state carries the refinement phase's working data: the clustering under
// adjustment, the candidate set with machine scores, the crowd session
// (whose known-pair set is the paper's A), and the histogram estimator.
//
// Operation scores are cached and invalidated incrementally: a cached
// score stays valid while (a) every cluster the operation touches is
// unchanged (per-cluster version counters bumped by apply) and (b) no
// new crowd answers have arrived (answers change both the known set and
// the histogram, shifting every estimate). The cache makes the
// known-positive drain loop — which re-ranks all operations after every
// free apply — nearly linear instead of quadratic in practice.
type state struct {
	c     *cluster.Clustering
	cands *pruning.Candidates
	sess  *crowd.Session
	hist  *histogram.Histogram
	mode  EstimatorMode

	version []int              // cluster index -> mutation counter
	cache   map[opKey]cachedOp // scored-op memo

	// The candidate graph in CSR form: record r's incident candidate
	// pairs occupy nbrPair[nbrOff[r]:nbrOff[r+1]] (indices into
	// cands.Pairs), with nbrOther holding each pair's other endpoint so
	// the hot loops never re-derive it from the pair itself. The
	// candidate set is immutable for the life of the state, so this is
	// built once; it lets the drain loop rediscover the merge ops of a
	// just-mutated cluster (and their first-connecting-pair enumeration
	// ranks) by walking only that cluster's incident pairs instead of
	// the whole candidate set.
	nbrOff   []int32
	nbrPair  []int32
	nbrOther []record.ID

	// est and exact cache estimate()'s result per candidate pair, at its
	// cands.Index position, for the current answers epoch
	// (estAt == sess.KnownCount()): between crowd batches the known set
	// and the histogram are fixed, so every pair's estimate is a
	// constant that scoring reads out of a flat slice instead of
	// re-deriving through three map probes and a histogram search per
	// cross pair.
	est     []float64
	exact   []bool
	machine []float64     // machine score per candidate pair (static)
	estAt   int           // sess.KnownCount() the cache was built at
	estMode EstimatorMode // mode the cache was built under
	knownAt int           // prefix of sess.KnownOrdered() already ingested

	// samples are the histogram's (machine, crowd) samples, one per
	// pair of A in first-crowdsourced order. A only grows, so each
	// rebuild appends the new tail instead of re-reading all of A.
	samples []histogram.Sample

	// scratches are the per-worker dense neighbor-estimate scratch
	// buffers of the scoring loops (index 0 serves every serial path).
	scratches []*estScratch
}

// opKey identifies an operation independent of its score, packed into
// one word so cache probes hash 8 bytes instead of a 4-field struct:
// the kind in the top two bits, then two 31-bit lanes — (record,
// cluster) for a split, (cluster A, cluster B) for a merge. Record IDs
// and cluster indices are far below 2³¹ at any supported scale.
type opKey uint64

type cachedOp struct {
	s         scoredOp
	verA      int
	verB      int
	answersAt int // sess.KnownCount() when scored
}

func keyOf(o Op) opKey {
	if o.Kind == SplitOp {
		return opKey(uint64(uint32(o.Record))<<31 | uint64(uint32(o.A)))
	}
	return opKey(uint64(1)<<62 | uint64(uint32(o.A))<<31 | uint64(uint32(o.B)))
}

func newState(c *cluster.Clustering, cands *pruning.Candidates, sess *crowd.Session) *state {
	st := &state{
		c:     c,
		cands: cands,
		sess:  sess,
		cache: make(map[opKey]cachedOp),
	}
	st.buildRecPairs()
	st.rebuildHistogram()
	return st
}

// buildRecPairs constructs the static record -> incident candidate-pair
// CSR and the per-pair machine-score array.
func (st *state) buildRecPairs() {
	st.nbrOff, st.nbrPair, st.nbrOther = incidence(st.cands, st.c.Len())
	st.machine = make([]float64, len(st.cands.Pairs))
	for i, sp := range st.cands.Pairs {
		st.machine[i] = sp.Score
	}
}

// incidence builds the record -> incident candidate-pair CSR over n
// records (counting sort, exact capacity): record r's pairs occupy
// pair[off[r]:off[r+1]] as indices into cands.Pairs, in cands.Pairs
// order, with other[k] the far endpoint of pair[k].
func incidence(cands *pruning.Candidates, n int) (off, pair []int32, other []record.ID) {
	off = make([]int32, n+1)
	for _, sp := range cands.Pairs {
		off[sp.Pair.Lo+1]++
		off[sp.Pair.Hi+1]++
	}
	for r := 0; r < n; r++ {
		off[r+1] += off[r]
	}
	pair = make([]int32, off[n])
	other = make([]record.ID, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	for i, sp := range cands.Pairs {
		lo, hi := sp.Pair.Lo, sp.Pair.Hi
		k := cur[lo]
		cur[lo]++
		pair[k] = int32(i)
		other[k] = hi
		k = cur[hi]
		cur[hi]++
		pair[k] = int32(i)
		other[k] = lo
	}
	return off, pair, other
}

// ensureEstimates (re)builds the flat per-pair estimate cache when it
// is missing or was built for a different answers epoch or estimator
// mode. The refresh is incremental: newly crowdsourced pairs (the tail
// of the session's insertion-ordered A, with their scores read from
// the aligned KnownScores) flip their slots to exact, and the
// still-unknown candidates re-read the histogram from the static
// machine-score array — no per-pair map probes at all. Callers in the
// parallel scoring pool rely on scoreAll having ensured freshness
// serially first, so the check never writes concurrently.
func (st *state) ensureEstimates() {
	if st.est != nil && st.estAt == st.sess.KnownCount() && st.estMode == st.mode {
		return
	}
	if st.est == nil {
		st.est = make([]float64, len(st.cands.Pairs))
		st.exact = make([]bool, len(st.cands.Pairs))
	}
	known, scores := st.sess.KnownOrdered(), st.sess.KnownScores()
	for j := st.knownAt; j < len(known); j++ {
		if i, ok := st.cands.Index(known[j]); ok {
			st.est[i] = scores[j]
			st.exact[i] = true
		}
	}
	st.knownAt = len(known)
	for i, ex := range st.exact {
		if ex {
			continue
		}
		if st.mode == IdentityEstimator {
			st.est[i] = st.machine[i]
		} else {
			st.est[i] = st.hist.Estimate(st.machine[i])
		}
	}
	st.estAt = st.sess.KnownCount()
	st.estMode = st.mode
}

// pairEstimate is estimate() served from the flat cache: candidate
// pairs read their slot, pruned pairs are exactly 0.
func (st *state) pairEstimate(p record.Pair) (fc float64, exact bool) {
	if i, ok := st.cands.Index(p); ok {
		return st.est[i], st.exact[i]
	}
	return 0, true
}

// cachedScore returns a still-valid cached score for an op, if any. A
// zero-cost score survives answer epochs: every pair it read was exact
// (crowdsourced, or pruned and fixed at 0), and new answers can change
// neither those values nor which pairs the op spans while its clusters'
// versions hold — so only positive-cost scores are invalidated when the
// known set (and with it the histogram) grows.
func (st *state) cachedScore(o Op) (scoredOp, bool) {
	e, ok := st.cache[keyOf(o)]
	if !ok || (e.answersAt != st.sess.KnownCount() && e.s.cost != 0) {
		return scoredOp{}, false
	}
	if e.verA != st.ver(o.A) {
		return scoredOp{}, false
	}
	if o.Kind == MergeOp && e.verB != st.ver(o.B) {
		return scoredOp{}, false
	}
	return e.s, true
}

func (st *state) storeScore(s scoredOp) {
	o := s.op
	e := cachedOp{s: s, verA: st.ver(o.A), answersAt: st.sess.KnownCount()}
	if o.Kind == MergeOp {
		e.verB = st.ver(o.B)
	}
	st.cache[keyOf(o)] = e
}

// ver reads a cluster's mutation counter; indices past the slice (fresh
// clusters no apply has touched yet) are at version 0.
func (st *state) ver(i int) int {
	if i < len(st.version) {
		return st.version[i]
	}
	return 0
}

// bumpVer increments a cluster's mutation counter, growing the slice on
// demand (splits mint new cluster indices).
func (st *state) bumpVer(i int) {
	for len(st.version) <= i {
		st.version = append(st.version, 0)
	}
	st.version[i]++
}

// rebuildHistogram reconstructs the equi-depth estimator from every pair
// the session has crowdsourced so far (Section 5.2; also Lines 15-16 of
// Algorithm 4 and 21-22 of Algorithm 5).
func (st *state) rebuildHistogram() {
	// Samples follow A in first-crowdsourced order, not map order: equal
	// machine scores with different crowd scores land in different
	// equi-depth buckets depending on sample order, so map iteration
	// would make the estimator — and everything downstream — vary run
	// to run. A only grows, so only its new tail is read; Build sorts a
	// copy, leaving st.samples in that order.
	known, scores := st.sess.KnownOrdered(), st.sess.KnownScores()
	for j := len(st.samples); j < len(known); j++ {
		st.samples = append(st.samples, histogram.Sample{Machine: st.cands.Score(known[j]), Crowd: scores[j]})
	}
	st.hist = histogram.Build(st.samples, histogram.DefaultBuckets)
	rec := st.sess.Recorder()
	rec.Count(MetricHistRebuilds, 1)
	rec.Gauge(MetricHistSamples, float64(len(st.samples)))
}

// estimate returns the best available f_c estimate for a pair: the exact
// crowd score when the pair is in A, the histogram mapping of its machine
// score when it is an uncrowdsourced candidate, and exactly 0 when the
// pair was eliminated by pruning (Section 3 fixes f_c = 0 for pruned
// pairs; they are never crowdsourced).
func (st *state) estimate(p record.Pair) (fc float64, exact bool) {
	if fc, ok := st.sess.Known(p); ok {
		return fc, true
	}
	if !st.cands.Contains(p) {
		return 0, true
	}
	if st.mode == IdentityEstimator {
		return st.cands.Score(p), false
	}
	return st.hist.Estimate(st.cands.Score(p)), false
}

// estScratch is a dense neighbor-estimate buffer: load stamps one
// record's candidate neighbors with their current estimates, and the
// scoring inner loops then read per-record estimates as two array
// indexes — no pair hashing on the hot path. The epoch stamp makes
// "clearing" between records a single increment. Each scoring worker
// owns one (see state.scratchFor).
type estScratch struct {
	epoch int64
	seen  []int64
	fc    []float64
	exact []bool
}

// load stamps r's candidate neighbors' estimates into the scratch.
func (st *state) load(sc *estScratch, r record.ID) {
	sc.epoch++
	ep := sc.epoch
	for k := st.nbrOff[r]; k < st.nbrOff[r+1]; k++ {
		pi := st.nbrPair[k]
		other := st.nbrOther[k]
		sc.seen[other] = ep
		sc.fc[other] = st.est[pi]
		sc.exact[other] = st.exact[pi]
	}
}

// at reads the estimate for the pair (loaded record, other): a stamped
// slot is a candidate pair's cached estimate; anything else was pruned
// and is exactly 0.
func (sc *estScratch) at(other record.ID) (fc float64, exact bool) {
	if sc.seen[other] == sc.epoch {
		return sc.fc[other], sc.exact[other]
	}
	return 0, true
}

// scratchFor returns worker w's scratch buffer, allocating on first
// use. Must be called serially (scoreAll pre-grows the slice before
// fanning out).
func (st *state) scratchFor(w int) *estScratch {
	for len(st.scratches) <= w {
		st.scratches = append(st.scratches, nil)
	}
	if st.scratches[w] == nil {
		n := st.c.Len()
		st.scratches[w] = &estScratch{
			seen:  make([]int64, n),
			fc:    make([]float64, n),
			exact: make([]bool, n),
		}
	}
	return st.scratches[w]
}

// scoreSplit evaluates the split of r from cluster a (Equations 5 and 7).
func (st *state) scoreSplit(r record.ID, a int) scoredOp {
	st.ensureEstimates()
	return st.scoreSplitWith(st.scratchFor(0), r, a)
}

// scoreSplitWith is scoreSplit against an explicit scratch buffer; the
// caller must have ensured the estimate cache is fresh.
func (st *state) scoreSplitWith(sc *estScratch, r record.ID, a int) scoredOp {
	s := scoredOp{op: Op{Kind: SplitOp, Record: r, A: a}}
	st.load(sc, r)
	for _, other := range st.c.Members(a) {
		if other == r {
			continue
		}
		fc, exact := sc.at(other)
		s.bStar += 1 - 2*fc
		if !exact {
			s.cost++
		}
	}
	return s
}

// scoreMerge evaluates the merger of clusters a and b (Equations 6 and 8).
func (st *state) scoreMerge(a, b int) scoredOp {
	st.ensureEstimates()
	return st.scoreMergeWith(st.scratchFor(0), a, b)
}

// scoreMergeWith is scoreMerge against an explicit scratch buffer; the
// caller must have ensured the estimate cache is fresh.
func (st *state) scoreMergeWith(sc *estScratch, a, b int) scoredOp {
	s := scoredOp{op: Op{Kind: MergeOp, A: a, B: b}}
	other := st.c.Members(b)
	for _, r1 := range st.c.Members(a) {
		st.load(sc, r1)
		for _, r2 := range other {
			fc, exact := sc.at(r2)
			s.bStar += 2*fc - 1
			if !exact {
				s.cost++
			}
		}
	}
	return s
}

// unknownPairs materializes the cost pairs of an op — the candidate
// pairs its benefit needs that are outside A — in the same order the
// scoring walk visits them. Only called for ops actually selected for
// crowdsourcing, so the slices scoring itself no longer allocates are
// built a handful at a time here.
func (st *state) unknownPairs(o Op) []record.Pair {
	st.ensureEstimates()
	var out []record.Pair
	visit := func(p record.Pair) {
		if _, exact := st.pairEstimate(p); !exact {
			out = append(out, p)
		}
	}
	if o.Kind == SplitOp {
		for _, other := range st.c.Members(o.A) {
			if other != o.Record {
				visit(record.MakePair(o.Record, other))
			}
		}
		return out
	}
	for _, r1 := range st.c.Members(o.A) {
		for _, r2 := range st.c.Members(o.B) {
			visit(record.MakePair(r1, r2))
		}
	}
	return out
}

// exactBenefit recomputes an operation's benefit assuming all of its
// pairs are now known (called after crowdsourcing the unknown ones).
func (st *state) exactBenefit(o Op) float64 {
	var s scoredOp
	switch o.Kind {
	case SplitOp:
		s = st.scoreSplit(o.Record, o.A)
	case MergeOp:
		s = st.scoreMerge(o.A, o.B)
	}
	if s.cost != 0 {
		panic(fmt.Sprintf("refine: exactBenefit(%v) still has %d unknown pairs", o, s.cost))
	}
	return s.bStar
}

// apply performs the operation on the working clustering and bumps the
// version counters of every touched cluster (including the fresh
// singleton a split creates). It returns the touched cluster indices so
// the drain loop can re-score exactly the operations the apply dirtied.
func (st *state) apply(o Op) [2]int {
	switch o.Kind {
	case SplitOp:
		idx := st.c.Split(o.Record)
		st.bumpVer(o.A)
		st.bumpVer(idx)
		return [2]int{o.A, idx}
	default:
		st.c.Merge(o.A, o.B)
		st.bumpVer(o.A)
		st.bumpVer(o.B)
		return [2]int{o.A, o.B}
	}
}

// collectOps lists every operation of interest on the current
// clustering, in enumeration order, together with each op's enumeration
// key (see enumKey): a split for every record in a non-singleton
// cluster, and a merge for every pair of clusters connected by at least
// one candidate pair. Cluster pairs with no candidate edge are omitted
// as an exact optimization: every one of their cross pairs has f_c = 0
// (pruned), so their merge benefit is at most -1 per cross pair and can
// never be selected by benefit or ratio.
func (st *state) collectOps() ([]Op, []enumKey) {
	var ops []Op
	var keys []enumKey
	for _, idx := range st.c.ClusterIndices() {
		if st.c.Size(idx) < 2 {
			continue
		}
		for pos, r := range st.c.Members(idx) {
			ops = append(ops, Op{Kind: SplitOp, Record: r, A: idx})
			keys = append(keys, splitKey(idx, pos))
		}
	}
	seen := make(map[uint64]struct{})
	for i, sp := range st.cands.Pairs {
		a := st.c.Assignment(sp.Pair.Lo)
		b := st.c.Assignment(sp.Pair.Hi)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := clusterPairKey(a, b)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		ops = append(ops, Op{Kind: MergeOp, A: a, B: b})
		keys = append(keys, mergeKey(i))
	}
	return ops, keys
}

// clusterPairKey packs an ordered cluster-index pair into one word for
// the merge dedup maps (cheaper to hash than a two-int array key).
func clusterPairKey(a, b int) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// enumerate scores every operation of interest on the current clustering
// (cache-assisted, parallel when the uncached tail is large).
func (st *state) enumerate() []scoredOp {
	ops, _ := st.collectOps()
	return st.scoreAll(ops)
}

// applyKnownPositive drains the set O⁺: while there is an operation whose
// benefit is exactly known and positive, apply the best one (Lines 4-7 of
// Algorithms 4 and 5). This step needs no crowd at all. Termination is
// guaranteed because each applied operation decreases Λ′(R) by its exact
// benefit, which is a positive multiple of 1/workers.
//
// The original implementation re-enumerated and re-ranked every
// operation after every free apply; this one enumerates once into a lazy
// max-heap and, after each apply, re-scores only the operations touching
// the two mutated clusters (see drainHeap for the invariants that make
// that equivalent). The selection sequence — highest exact benefit,
// ties to the earliest op in enumeration order — is byte-identical.
func (st *state) applyKnownPositive() {
	h := st.buildDrainHeap()
	for h.Len() > 0 {
		e := heap.Pop(h).(heapEntry)
		if !st.entryValid(e) {
			continue // stale: a cluster it touches has mutated since scoring
		}
		touched := st.apply(e.s.op)
		st.sess.Recorder().Count(MetricFreeApplies, 1)
		st.pushDirty(h, touched)
	}
}

// sortByRatio orders positive-ratio, positive-cost ops by descending
// benefit-cost ratio with deterministic tie-breaking.
func sortByRatio(ops []scoredOp) []scoredOp {
	var out []scoredOp
	for _, s := range ops {
		if s.cost > 0 && s.ratio() > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].ratio(), out[j].ratio()
		if ri != rj {
			return ri > rj
		}
		oi, oj := out[i].op, out[j].op
		if oi.Kind != oj.Kind {
			return oi.Kind < oj.Kind
		}
		if oi.A != oj.A {
			return oi.A < oj.A
		}
		if oi.B != oj.B {
			return oi.B < oj.B
		}
		return oi.Record < oj.Record
	})
	return out
}
