package incremental

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
)

// TestPrefixSplitGolden is the tentpole guarantee: feeding the
// Restaurant dataset in two halves through the incremental engine
// reaches the batch pipeline's F1 envelope while the second wave asks
// strictly fewer crowd questions than a from-scratch batch run — the
// saved questions are exactly what transitive inference over the
// wave-one clustering answers for free.
func TestPrefixSplitGolden(t *testing.T) {
	ds := dataset.Restaurant(1)
	truth := ds.TruthFn()
	n := len(ds.Records)
	half := n / 2
	const seed = 42

	// Batch reference over the full dataset: the answer file F covers
	// every full-set candidate pair, so both pipelines replay the same
	// simulated crowd.
	candsAll := pruning.Prune(ds.Records, pruning.Options{})
	answers := crowd.BuildAnswers(candsAll.PairList(), truth, crowd.UniformDifficulty(0), crowd.ThreeWorker(7))
	recBatch := obs.New()
	outBatch := core.ACD(candsAll, answers, core.Config{Seed: seed, Obs: recBatch})
	if outBatch.Err != nil {
		t.Fatal(outBatch.Err)
	}
	f1Batch := cluster.Evaluate(outBatch.Clusters, ds.Truth()).F1
	qBatch := outBatch.Stats.Pairs
	if qBatch == 0 || f1Batch < 0.8 {
		t.Fatalf("batch reference degenerate: %d questions, F1 %.3f", qBatch, f1Batch)
	}

	// Incremental: same answers, same seed, two waves.
	recInc := obs.New()
	eng := New(Config{Source: answers, Obs: recInc, Seed: seed})
	addRange := func(lo, hi int) {
		t.Helper()
		for _, r := range ds.Records[lo:hi] {
			if _, err := eng.Add(Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	addRange(0, half)
	st1, err := eng.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q1 := recInc.Counter(crowd.MetricQuestionsAnswered)

	// Wave one had no prior state, so it must reproduce a batch run over
	// the prefix exactly: same candidate set, same permutation seed,
	// same answers — same clustering, question for question.
	// (The reference run gets its own recorder: the shared AnswerSet is a
	// RecorderCarrier, and letting this run adopt recInc would pollute
	// the incremental question counter.)
	candsPre := pruning.Prune(ds.Records[:half], pruning.Options{})
	outPre := core.ACD(candsPre, answers, core.Config{Seed: seed, Obs: obs.New()})
	if outPre.Err != nil {
		t.Fatal(outPre.Err)
	}
	preSets := toIntSets(outPre.Clusters.Sets())
	if got := eng.Clusters(); !reflect.DeepEqual(got, preSets) {
		t.Errorf("wave-1 clustering differs from batch-over-prefix")
	}
	if int(q1) != outPre.Stats.Pairs {
		t.Errorf("wave 1 asked %d questions, batch-over-prefix asked %d", q1, outPre.Stats.Pairs)
	}

	addRange(half, n)
	st2, err := eng.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q2 := recInc.Counter(crowd.MetricQuestionsAnswered) - q1

	// The headline claim: wave 2 asks strictly fewer questions than
	// redoing the whole dataset from scratch.
	if q2 >= int64(qBatch) {
		t.Errorf("wave 2 asked %d questions, batch asks %d — no incremental saving", q2, qBatch)
	}
	// And the saving is driven by inference, not by luck: wave 2 both
	// primed closure edges and excluded resolved non-candidates.
	if st2.ClosureEdges == 0 || st2.InferredPositive == 0 {
		t.Errorf("wave 2 inferred nothing: %+v", st2)
	}
	if st1.Records != half || st2.Records != n {
		t.Errorf("wave stats: %+v / %+v", st1, st2)
	}

	// F1 envelope: the incremental result must hold the batch quality.
	sets := make([][]record.ID, 0)
	for _, set := range eng.Clusters() {
		ids := make([]record.ID, len(set))
		for i, m := range set {
			ids[i] = record.ID(m)
		}
		sets = append(sets, ids)
	}
	incClusters, err := cluster.FromSets(n, sets)
	if err != nil {
		t.Fatal(err)
	}
	f1Inc := cluster.Evaluate(incClusters, ds.Truth()).F1
	if f1Inc < f1Batch-0.02 {
		t.Errorf("incremental F1 %.4f below batch envelope (batch %.4f)", f1Inc, f1Batch)
	}
	t.Logf("batch: %d questions, F1 %.4f; incremental: %d+%d questions, F1 %.4f (closure %d, inferred- %d)",
		qBatch, f1Batch, q1, q2, f1Inc, st2.ClosureEdges, st2.InferredNegative)

	// Accounting invariant: the engine's sessions are the only path to
	// the oracle, so distinct questions == oracle invocations.
	if qa, oi := recInc.Counter(crowd.MetricQuestionsAnswered), recInc.Counter(crowd.MetricOracleInvocations); qa != oi {
		t.Errorf("questions_answered %d != oracle_invocations %d", qa, oi)
	}
}

func toIntSets(sets [][]record.ID) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = make([]int, len(s))
		for j, id := range s {
			out[i][j] = int(id)
		}
	}
	return out
}
