package refine

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/histogram"
	"acd/internal/pruning"
	"acd/internal/record"
)

// scratchHistogram is the reference estimator, built from all of A at
// once: A in first-crowdsourced order, each pair's crowd score read
// through Known and its machine score through the candidate set.
func scratchHistogram(cands *pruning.Candidates, sess *crowd.Session) *histogram.Histogram {
	var samples []histogram.Sample
	for _, p := range sess.KnownOrdered() {
		fc, _ := sess.Known(p)
		samples = append(samples, histogram.Sample{Machine: cands.Score(p), Crowd: fc})
	}
	return histogram.Build(samples, histogram.DefaultBuckets)
}

// TestAppendOnlyHistogramMatchesRebuild: over random instances and
// batch sequences — in-batch duplicates, pairs already in A, primed
// answers (candidates and pruned pairs alike) — the histogram built
// from the kept, append-only samples equals one rebuilt from scratch
// after every batch, and the samples mirror A one for one.
func TestAppendOnlyHistogramMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, scores, c := randomRefineInstance(rng)
		cands, sess := instance(n, scores)
		var all []record.Pair
		for _, sp := range cands.Pairs {
			all = append(all, sp.Pair)
		}
		st := newState(c, cands, sess)
		for batch := 0; batch < 12; batch++ {
			if len(all) > 0 {
				ask := make([]record.Pair, 1+rng.Intn(6))
				for i := range ask {
					ask[i] = all[rng.Intn(len(all))]
				}
				sess.Ask(ask)
			}
			if rng.Intn(3) == 0 && n > 1 {
				a, b := record.ID(rng.Intn(n)), record.ID(rng.Intn(n))
				if a != b {
					sess.Prime(record.MakePair(a, b), float64(rng.Intn(4))/3)
				}
			}
			st.rebuildHistogram()
			if len(st.samples) != sess.KnownCount() {
				t.Logf("seed %d batch %d: %d samples for |A| = %d", seed, batch, len(st.samples), sess.KnownCount())
				return false
			}
			if !reflect.DeepEqual(st.hist, scratchHistogram(cands, sess)) {
				t.Logf("seed %d batch %d: histogram diverged from a rebuild", seed, batch)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPCRefineHistogramMatchesRebuild runs the whole algorithm and
// checks the estimator it ends on against a from-scratch rebuild over
// the session's final A.
func TestPCRefineHistogramMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, scores, c := randomRefineInstance(rng)
		cands, sess := instance(n, scores)
		st := newState(c, cands, sess)
		PCRefine(c.Clone(), cands, sess, DefaultX)
		st.rebuildHistogram()
		if !reflect.DeepEqual(st.hist, scratchHistogram(cands, sess)) {
			t.Errorf("seed %d: histogram over the refined A diverged from a rebuild", seed)
		}
	}
}

// denseInstance is a few large clusters over n records with many
// candidate pairs and crowd scores in thirds (so benefits tie often),
// half of them already crowdsourced.
func denseInstance(n int, seed int64) (*pruning.Candidates, *crowd.Session, *cluster.Clustering) {
	rng := rand.New(rand.NewSource(seed))
	entity := make([]int, n)
	for i := range entity {
		entity[i] = rng.Intn(6)
	}
	machine := cluster.Scores{}
	crowdScores := map[record.Pair]float64{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() > 0.3 {
				continue
			}
			p := record.MakePair(record.ID(i), record.ID(j))
			yes := 0
			for w := 0; w < 3; w++ {
				if (rng.Float64() < 0.85) == (entity[i] == entity[j]) {
					yes++
				}
			}
			crowdScores[p] = float64(yes) / 3
			machine[p] = 0.31 + 0.6*rng.Float64()
		}
	}
	cands := pruning.FromScores(n, machine, 0.3)
	sess := crowd.NewSession(crowd.FixedAnswers(crowdScores, crowd.Config{}))
	var half []record.Pair
	for i, sp := range cands.Pairs {
		if i%2 == 0 {
			half = append(half, sp.Pair)
		}
	}
	sess.Ask(half)
	sets := make([][]record.ID, 8)
	for i := 0; i < n; i++ {
		k := rng.Intn(len(sets))
		sets[k] = append(sets[k], record.ID(i))
	}
	return cands, sess, cluster.MustFromSets(n, sets)
}

// TestParallelScoringWithConcurrentIndexReads drives the parallel
// scoring pool over a full enumeration while other goroutines read the
// candidate index (Index, Score, Contains) — the index is shared,
// immutable state, so this must be race-free under -race — and checks
// the pool's scores equal a sequential scoring.
func TestParallelScoringWithConcurrentIndexReads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cands, sess, c := denseInstance(300, 3)
	st := newState(c, cands, sess)
	ops, _ := st.collectOps()
	if len(ops) < parallelScoreMin {
		t.Fatalf("%d ops: too few to reach the parallel pool (%d)", len(ops), parallelScoreMin)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				for i, sp := range cands.Pairs {
					select {
					case <-stop:
						return
					default:
					}
					if j, ok := cands.Index(sp.Pair); !ok || int(j) != i || cands.Score(sp.Pair) != sp.Score {
						t.Errorf("reader %d: Index(%v) = %d, %v; want %d", g, sp.Pair, j, ok, i)
						return
					}
					cands.Contains(record.Pair{Lo: sp.Pair.Hi, Hi: sp.Pair.Lo})
				}
			}
		}(g)
	}
	got := st.scoreAll(ops)
	close(stop)
	wg.Wait()

	seq := newState(c, cands, sess)
	seq.ensureEstimates()
	sc := seq.scratchFor(0)
	for i, o := range ops {
		if want := seq.scoreOne(o, sc); got[i] != want {
			t.Fatalf("op %v: parallel %+v, sequential %+v", o, got[i], want)
		}
	}
}

// TestCrowdBOEMDeterministic: move gains are sums of ±(1 − 2·fc) with
// fc in thirds, so ties between moves are common; the fixed visiting
// order must break them the same way on every run.
func TestCrowdBOEMDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var firstSets [][]record.ID
		var firstStats crowd.Stats
		for run := 0; run < 6; run++ {
			cands, sess, c := denseInstance(90, seed)
			got := CrowdBOEM(c, cands, sess)
			if run == 0 {
				firstSets, firstStats = got.Sets(), sess.Stats()
				continue
			}
			if !reflect.DeepEqual(got.Sets(), firstSets) || sess.Stats() != firstStats {
				t.Fatalf("seed %d run %d: clustering or stats differ from run 0 (%d vs %d clusters, stats %+v vs %+v)",
					seed, run, len(got.Sets()), len(firstSets), sess.Stats(), firstStats)
			}
		}
	}
}
