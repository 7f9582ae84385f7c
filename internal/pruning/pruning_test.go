package pruning

import (
	"math/rand"
	"reflect"
	"testing"

	"acd/internal/cluster"
	"acd/internal/record"
	"acd/internal/similarity"
)

func TestPruneJaccard(t *testing.T) {
	recs := []record.Record{
		record.New(0, map[string]string{"t": "chevrolet camaro sports car"}),
		record.New(1, map[string]string{"t": "chevy camaro sports car"}),
		record.New(2, map[string]string{"t": "chevron gas station"}),
		record.New(3, map[string]string{"t": "quantum physics textbook"}),
	}
	c := Prune(recs, Options{})
	if c.N != 4 {
		t.Fatalf("N = %d", c.N)
	}
	p01 := record.MakePair(0, 1)
	if !c.Contains(p01) {
		t.Fatalf("similar pair (0,1) pruned; candidates: %v", c.Pairs)
	}
	if c.Contains(record.MakePair(0, 3)) {
		t.Errorf("dissimilar pair (0,3) kept")
	}
	if c.Score(p01) <= DefaultTau {
		t.Errorf("candidate score %v not above tau", c.Score(p01))
	}
	if c.Score(record.MakePair(0, 3)) != 0 {
		t.Errorf("pruned pair score should be 0")
	}
	// Descending order.
	for i := 1; i < len(c.Pairs); i++ {
		if c.Pairs[i].Score > c.Pairs[i-1].Score {
			t.Errorf("pairs not in descending score order")
		}
	}
}

func TestPruneCustomMetricAndTau(t *testing.T) {
	recs := []record.Record{
		record.New(0, map[string]string{"t": "abcd"}),
		record.New(1, map[string]string{"t": "abce"}),
		record.New(2, map[string]string{"t": "zzzz"}),
	}
	c := Prune(recs, Options{Tau: 0.7, Metric: similarity.Levenshtein})
	if !c.Contains(record.MakePair(0, 1)) {
		t.Errorf("(0,1) with lev 0.75 should survive tau 0.7")
	}
	if len(c.Pairs) != 1 {
		t.Errorf("expected exactly 1 candidate, got %v", c.Pairs)
	}
}

// TestTauZeroMeanings pins down both readings of Tau == 0: without
// TauSet it is shorthand for DefaultTau; with TauSet it is a real τ = 0
// that keeps every pair with any token overlap at all.
func TestTauZeroMeanings(t *testing.T) {
	recs := []record.Record{
		record.New(0, map[string]string{"t": "alpha beta gamma delta"}),
		record.New(1, map[string]string{"t": "alpha beta gamma epsilon"}),
		// (0,2) and (1,2) overlap on one token: Jaccard 1/7 ≈ 0.14,
		// below DefaultTau but above a true τ = 0.
		record.New(2, map[string]string{"t": "alpha zeta eta theta"}),
		record.New(3, map[string]string{"t": "unrelated words here"}),
	}
	weak01 := record.MakePair(0, 2)

	implicit := Prune(recs, Options{})
	if implicit.Contains(weak01) {
		t.Errorf("Tau=0 without TauSet should mean DefaultTau; weak pair kept")
	}
	if got := (Options{}).EffectiveTau(); got != DefaultTau {
		t.Errorf("EffectiveTau() = %v, want DefaultTau", got)
	}

	explicit := Prune(recs, Options{Tau: 0, TauSet: true})
	if !explicit.Contains(weak01) || !explicit.Contains(record.MakePair(1, 2)) {
		t.Errorf("explicit τ=0 should keep every overlapping pair; got %v", explicit.Pairs)
	}
	if explicit.Contains(record.MakePair(0, 3)) {
		t.Errorf("τ=0 still requires overlap (score > 0); disjoint pair kept")
	}
	if got := (Options{TauSet: true}).EffectiveTau(); got != 0 {
		t.Errorf("EffectiveTau() with TauSet = %v, want 0", got)
	}
	if len(explicit.Pairs) <= len(implicit.Pairs) {
		t.Errorf("τ=0 kept %d pairs, DefaultTau kept %d; want strictly more",
			len(explicit.Pairs), len(implicit.Pairs))
	}

	// TauSet with a nonzero Tau is a no-op relative to plain Tau.
	a := Prune(recs, Options{Tau: 0.5})
	b := Prune(recs, Options{Tau: 0.5, TauSet: true})
	if len(a.Pairs) != len(b.Pairs) {
		t.Errorf("TauSet changed a nonzero Tau: %d vs %d pairs", len(a.Pairs), len(b.Pairs))
	}
}

// TestPruneParallelismEquivalent checks the knob end to end: every
// parallelism setting yields the identical candidate set, for both the
// indexed Jaccard path and the naive path with a custom metric.
func TestPruneParallelismEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	recs := make([]record.Record, 60)
	for i := range recs {
		text := ""
		for w := 0; w < 1+rng.Intn(5); w++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		recs[i] = record.New(record.ID(i), map[string]string{"t": text})
	}
	for _, opts := range []Options{
		{},
		{Metric: similarity.Levenshtein, Tau: 0.5},
	} {
		opts.Parallelism = 1
		want := Prune(recs, opts)
		for _, p := range []int{0, 2, 4, 8} {
			opts.Parallelism = p
			got := Prune(recs, opts)
			if !reflect.DeepEqual(got.Pairs, want.Pairs) {
				t.Errorf("parallelism %d diverged from sequential (metric %v)", p, opts.Metric != nil)
			}
			if got.N != want.N || len(got.Machine) != len(want.Machine) {
				t.Errorf("parallelism %d: candidates metadata diverged", p)
			}
		}
	}
}

// TestPrunePositionsAndTokenless pins two rules the indexed join and
// the all-pairs scan must share or be known to differ on. Pairs name
// records by position in the slice, not by their ID field, on both
// paths — so records whose ids are not 0..n−1 give the same candidate
// set under Metric == nil and Metric == similarity.Jaccard. And the one
// place the paths differ: two records without a token score 1 under
// similarity.Jaccard and pair up in the scan, while the indexed join
// (like blocking.IncrementalIndex) emits nothing without a shared token.
func TestPrunePositionsAndTokenless(t *testing.T) {
	recs := []record.Record{
		record.New(40, map[string]string{"t": "alpha beta gamma delta"}),
		record.New(7, map[string]string{"t": "alpha beta gamma epsilon"}),
		record.New(7, map[string]string{"t": "unrelated words here"}), // a duplicate id, even
		record.New(1000, map[string]string{"t": "alpha beta gamma"}),
	}
	indexed := Prune(recs, Options{})
	scanned := Prune(recs, Options{Metric: similarity.Jaccard})
	if !reflect.DeepEqual(indexed.Pairs, scanned.Pairs) {
		t.Errorf("indexed join and all-pairs scan disagree over non-dense ids:\n indexed %v\n scanned %v", indexed.Pairs, scanned.Pairs)
	}
	want := []record.Pair{record.MakePair(0, 3), record.MakePair(1, 3), record.MakePair(0, 1)}
	if got := indexed.PairList(); !reflect.DeepEqual(got, want) {
		t.Errorf("pairs %v, want positions %v", got, want)
	}
	for _, sp := range indexed.Pairs {
		if int(sp.Pair.Hi) >= indexed.N {
			t.Errorf("pair %v names a record outside the universe of %d", sp.Pair, indexed.N)
		}
	}

	blank := append([]record.Record{record.New(0, nil), record.New(1, map[string]string{"t": " -- "})}, recs...)
	indexed = Prune(blank, Options{})
	scanned = Prune(blank, Options{Metric: similarity.Jaccard})
	blanks := record.MakePair(0, 1)
	if indexed.Contains(blanks) {
		t.Errorf("indexed join paired two tokenless records")
	}
	if got := scanned.Score(blanks); got != 1 {
		t.Errorf("all-pairs scan scores two tokenless records %v, want 1 (similarity.Jaccard of two empty sets)", got)
	}
	if len(scanned.Pairs) != len(indexed.Pairs)+1 {
		t.Errorf("the paths differ by more than the tokenless pair: indexed %v, scanned %v", indexed.Pairs, scanned.Pairs)
	}
}

func TestFromScores(t *testing.T) {
	scores := cluster.Scores{
		record.MakePair(0, 1): 0.9,
		record.MakePair(1, 2): 0.3,
		record.MakePair(0, 2): 0.5,
	}
	c := FromScores(3, scores, 0.3)
	if len(c.Pairs) != 2 {
		t.Fatalf("expected 2 pairs (strict threshold), got %v", c.Pairs)
	}
	if c.Pairs[0].Pair != record.MakePair(0, 1) || c.Pairs[1].Pair != record.MakePair(0, 2) {
		t.Errorf("ordering wrong: %v", c.Pairs)
	}
	if got := c.PairList(); len(got) != 2 || got[0] != record.MakePair(0, 1) {
		t.Errorf("PairList wrong: %v", got)
	}
}
