package acd_test

import (
	"fmt"
	"strings"
	"testing"

	"acd"
	"acd/internal/dataset"
)

func brandRecords() ([]acd.Record, []int) {
	raw := []struct {
		text   string
		entity int
	}{
		{"chevrolet motor division detroit michigan usa", 0},
		{"chevy motor division detroit michigan usa", 0},
		{"chevron oil corporation san ramon california", 1},
		{"chevron corporation oil and gas san ramon", 1},
		{"quantum groceries boston massachusetts", 2},
	}
	records := make([]acd.Record, len(raw))
	entities := make([]int, len(raw))
	for i, r := range raw {
		records[i] = acd.Record{Fields: map[string]string{"name": r.text}}
		entities[i] = r.entity
	}
	return records, entities
}

// perfectCrowd answers according to ground truth.
func perfectCrowd(entities []int) acd.CrowdFunc {
	return func(i, j int) float64 {
		if entities[i] == entities[j] {
			return 1
		}
		return 0
	}
}

func TestDeduplicatePerfectCrowd(t *testing.T) {
	records, entities := brandRecords()
	res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, r, f1 := res.F1(entities)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("P/R/F1 = %v/%v/%v, clusters %v", p, r, f1, res.Clusters)
	}
	// Partition invariants.
	seen := map[int]bool{}
	for ci, members := range res.Clusters {
		for _, m := range members {
			if seen[m] {
				t.Fatalf("record %d in two clusters", m)
			}
			seen[m] = true
			if res.ClusterOf[m] != ci {
				t.Errorf("ClusterOf[%d] = %d, want %d", m, res.ClusterOf[m], ci)
			}
		}
	}
	if len(seen) != len(records) {
		t.Errorf("covered %d of %d records", len(seen), len(records))
	}
	if res.PairsAsked == 0 || res.Iterations == 0 || res.CandidatePairs == 0 {
		t.Errorf("missing accounting: %+v", res)
	}
	if res.HITs == 0 || res.Cents != res.HITs*2 {
		t.Errorf("cost accounting wrong: %+v", res)
	}
}

func TestDeduplicateValidation(t *testing.T) {
	records, entities := brandRecords()
	fn := perfectCrowd(entities)
	cases := []struct {
		name    string
		records []acd.Record
		fn      acd.CrowdFunc
		opts    acd.Options
		wantErr string
	}{
		{"empty", nil, fn, acd.Options{}, "no records"},
		{"nilcrowd", records, nil, acd.Options{}, "nil crowd"},
		{"badtau", records, fn, acd.Options{Tau: 1.5}, "Tau"},
		{"badeps", records, fn, acd.Options{Epsilon: 2}, "Epsilon"},
		{"badmetric", records, fn, acd.Options{Metric: "nope"}, "metric"},
	}
	for _, c := range cases {
		_, err := acd.Deduplicate(c.records, c.fn, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestDeduplicateCustomMetric(t *testing.T) {
	records, entities := brandRecords()
	res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
		Metric: "levenshtein",
		Tau:    0.4,
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, f1 := res.F1(entities); f1 < 0.5 {
		t.Errorf("levenshtein pipeline F1 = %v", f1)
	}
}

func TestDeduplicateSkipRefinement(t *testing.T) {
	records, entities := brandRecords()
	res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
		SkipRefinement: true,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, f1 := res.F1(entities); f1 < 0.9 {
		t.Errorf("PC-Pivot-only F1 = %v on an easy instance", f1)
	}
}

// TestDeduplicateNoisyCrowdStillClusters runs the facade with a noisy
// crowd and just asserts sanity: a valid partition and bounded cost.
func TestDeduplicateNoisyCrowd(t *testing.T) {
	records, entities := brandRecords()
	calls := 0
	noisy := func(i, j int) float64 {
		calls++
		truth := entities[i] == entities[j]
		// A deterministic "2 of 3 workers right" vote.
		if truth {
			return 2.0 / 3
		}
		return 1.0 / 3
	}
	res, err := acd.Deduplicate(records, noisy, acd.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.PairsAsked {
		t.Errorf("crowd called %d times for %d pairs", calls, res.PairsAsked)
	}
	if _, _, f1 := res.F1(entities); f1 != 1 {
		t.Errorf("majority-correct crowd should still yield F1 1, got %v", f1)
	}
}

func TestDeduplicateProgressHook(t *testing.T) {
	records, entities := brandRecords()
	var lastPairs, lastIters, calls int
	res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
		Seed: 1,
		OnProgress: func(pairs, iterations int) {
			calls++
			if pairs < lastPairs || iterations != lastIters+1 {
				t.Errorf("progress went backwards: %d/%d after %d/%d",
					pairs, iterations, lastPairs, lastIters)
			}
			lastPairs, lastIters = pairs, iterations
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("hook fired %d times for %d iterations", calls, res.Iterations)
	}
	if lastPairs != res.PairsAsked {
		t.Errorf("final progress pairs %d != result %d", lastPairs, res.PairsAsked)
	}
}

// TestDeduplicateProgressSequencePinned pins the whole OnProgress
// sequence — "pairsAsked/iterations;" per call — on Restaurant seed 1,
// over the plain crowd function and over the default marketplace fleet.
// The hashes were generated at the commit before the progress-counting
// source wrapper was replaced by a crowd.Session observer, so the hook
// must fire at the same iterations with the same running totals.
func TestDeduplicateProgressSequencePinned(t *testing.T) {
	d := dataset.Restaurant(1)
	records := make([]acd.Record, len(d.Records))
	entities := make([]int, len(d.Records))
	for i, r := range d.Records {
		records[i] = acd.Record{Fields: r.Fields}
		entities[i] = r.Entity
	}
	for _, want := range []struct {
		market            string
		calls, pairs      int
		hits, cents       int
		sequenceHash, tag string
	}{
		{"", 76, 4319, 254, 508, "f5e0b170222a7cf1e173a45168bac3c3c3eb3d7525e91e6dc32fcdbaffe17cbc", "plain"},
		{"default", 52, 2622, 154, 154, "65aeee72ad5c8412d1f191b2037a8186309ab184c2e91481b7148d450f1010ca", "default fleet"},
	} {
		var seq strings.Builder
		calls := 0
		res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
			Seed:   1,
			Market: want.market,
			OnProgress: func(pairs, iterations int) {
				calls++
				fmt.Fprintf(&seq, "%d/%d;", pairs, iterations)
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", want.tag, err)
		}
		if calls != want.calls || res.Iterations != want.calls || res.PairsAsked != want.pairs ||
			res.HITs != want.hits || res.Cents != want.cents {
			t.Errorf("%s: %d progress calls, result %d iterations / %d pairs / %d HITs / %d cents; want %d calls, %d pairs, %d HITs, %d cents",
				want.tag, calls, res.Iterations, res.PairsAsked, res.HITs, res.Cents, want.calls, want.pairs, want.hits, want.cents)
		}
		if got := hashString(seq.String()); got != want.sequenceHash {
			t.Errorf("%s: progress sequence hash %s, want %s\nsequence: %s", want.tag, got, want.sequenceHash, seq.String())
		}
	}
}

// TestDeduplicateParallelismInvariant checks the facade knob: results
// must be identical whatever the pruning worker-pool size, since the
// parallel join is byte-equivalent to the sequential one.
func TestDeduplicateParallelismInvariant(t *testing.T) {
	records, entities := brandRecords()
	base, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{Seed: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 8} {
		res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{Seed: 6, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.CandidatePairs != base.CandidatePairs || res.PairsAsked != base.PairsAsked ||
			len(res.Clusters) != len(base.Clusters) {
			t.Errorf("Parallelism %d changed the result: %+v vs %+v", p, res, base)
		}
	}
}

// TestDeduplicateMarket runs the facade through a simulated
// marketplace: clustering stays correct with an accurate fleet, the
// spend is booked through the market (not the uniform rate), and the
// market/* metric family lands in the result snapshot.
func TestDeduplicateMarket(t *testing.T) {
	records, entities := brandRecords()
	res, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
		Seed:   1,
		Market: "fast:1:20:0;careful:6:10:0;machine:0:0:0.45:machine",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, f1 := res.F1(entities); f1 != 1 {
		t.Errorf("error-free marketplace fleet should yield F1 1, got %v (clusters %v)", f1, res.Clusters)
	}
	spend, ok := res.Metrics.Counters["market/spend_cents"]
	if !ok {
		t.Fatal("market/spend_cents missing from the metrics snapshot")
	}
	if int(spend) != res.Cents {
		t.Errorf("session booked %d cents, market spent %d", res.Cents, spend)
	}
	if res.Metrics.Counters["market/routed"] == 0 {
		t.Error("market/routed never incremented")
	}

	if _, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
		Market: "bad spec",
	}); err == nil {
		t.Error("bad fleet spec accepted")
	}

	capped, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{
		Seed:         1,
		Market:       "careful:6:10:0.02",
		MarketBudget: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Cents > 6 {
		t.Errorf("budget 6 overspent: %d cents", capped.Cents)
	}
}

func TestDeduplicateDeterminism(t *testing.T) {
	records, entities := brandRecords()
	a, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := acd.Deduplicate(records, perfectCrowd(entities), acd.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) || a.PairsAsked != b.PairsAsked {
		t.Errorf("same seed differed: %+v vs %+v", a, b)
	}
}
