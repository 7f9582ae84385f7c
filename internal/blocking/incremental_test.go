package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"acd/internal/record"
	"acd/internal/similarity"
)

func TestIncrementalIndexSmall(t *testing.T) {
	texts := []string{
		"apple banana cherry",
		"apple banana grape",
		"dog cat",
		"dog cat mouse",
		"zebra",
	}
	ix := NewIncrementalIndex(0.3)
	var all []ScoredPair
	for i, s := range texts {
		if ix.Len() != i {
			t.Fatalf("Len = %d before adding record %d", ix.Len(), i)
		}
		all = append(all, ix.Add(s)...)
	}
	if ix.Tau() != 0.3 {
		t.Errorf("Tau = %v", ix.Tau())
	}
	if ix.Postings() == 0 {
		t.Errorf("no postings after %d adds", ix.Len())
	}
	SortScored(all)
	want := JaccardJoin(mkRecords(texts), 0.3)
	if !reflect.DeepEqual(all, want) {
		t.Errorf("incremental = %v, want %v", all, want)
	}
}

func TestIncrementalIndexEmptyText(t *testing.T) {
	ix := NewIncrementalIndex(0.0)
	if got := ix.Add(""); len(got) != 0 {
		t.Errorf("empty record paired: %v", got)
	}
	if got := ix.Add("a b"); len(got) != 0 {
		t.Errorf("record paired with empty predecessor: %v", got)
	}
	if got := ix.Add(""); len(got) != 0 {
		t.Errorf("second empty record paired: %v", got)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d, want 3 (empty records still consume ids)", ix.Len())
	}
}

// TestIncrementalIndexEachEmissionLocal pins the per-call contract: every
// pair an Add returns has the new record as its Hi side, with an exact
// score above tau — rechecked against the texts the test itself fed in,
// not against anything the index stores.
func TestIncrementalIndexEachEmissionLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	ix := NewIncrementalIndex(0.25)
	var texts []string
	for i := 0; i < 40; i++ {
		text := ""
		for w := 0; w < 1+rng.Intn(5); w++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		texts = append(texts, text)
		for _, sp := range ix.Add(text) {
			if int(sp.Pair.Hi) != i {
				t.Fatalf("add %d emitted pair %v not incident to the new record", i, sp.Pair)
			}
			if sp.Score <= 0.25 {
				t.Fatalf("add %d emitted pair %v at score %v ≤ tau", i, sp.Pair, sp.Score)
			}
			want := similarity.Jaccard(text, texts[sp.Pair.Lo])
			if sp.Score != want {
				t.Fatalf("add %d pair %v score %v, exact %v", i, sp.Pair, sp.Score, want)
			}
		}
	}
}

// Property: for random record streams, the union of pairs emitted across
// all Adds equals the batch JaccardJoin over the full set — same pairs,
// same scores — across seeds and thresholds including tau = 0. Besides
// the plain vocabulary, streams are drawn with tokens every record (or
// most records) holds, so every earlier record is touched by the
// count-merge; with tokens repeated inside a record, which must count
// once; and with records that have no token at all (empty, or
// punctuation only), which consume an id and pair with nothing. Index
// size stats must match a from-scratch count at the end.
func TestIncrementalMatchesBatch(t *testing.T) {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	taus := []float64{0, 0.1, 0.3, 0.5, 0.8}
	shapes := []struct {
		name       string
		ubiquitous []string // each joins a record with probability 0.9
		repeat     bool     // draw some tokens twice
		tokenless  int      // records replaced by token-free text
	}{
		{name: "plain", tokenless: 1},
		{name: "ubiquitous", ubiquitous: []string{"the", "of", "t0"}},
		{name: "repeats", repeat: true},
		{name: "all", ubiquitous: []string{"the", "t0"}, repeat: true, tokenless: 3},
	}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(40)
			texts := make([]string, n)
			for i := range texts {
				k := 1 + rng.Intn(6)
				text := ""
				for w := 0; w < k; w++ {
					tok := vocab[rng.Intn(len(vocab))]
					text += tok + " "
					if shape.repeat && rng.Intn(3) == 0 {
						text += tok + ", " + tok + " "
					}
				}
				for _, u := range shape.ubiquitous {
					if rng.Intn(10) > 0 {
						text += u + " "
					}
				}
				texts[i] = text
			}
			if n > 4 {
				for k := 0; k < shape.tokenless; k++ {
					texts[rng.Intn(n)] = []string{"", " ", "--- !"}[k%3]
				}
			}
			tau := taus[rng.Intn(len(taus))]

			ix := NewIncrementalIndex(tau)
			var got []ScoredPair
			postings := 0
			for _, s := range texts {
				got = append(got, ix.Add(s)...)
				postings += len(record.TokenSet(s))
			}
			SortScored(got)
			want := JaccardJoin(mkRecords(texts), tau)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d tau %v: incremental union differs from batch:\n got %v\nwant %v",
					shape.name, seed, tau, got, want)
			}
			if ix.Len() != n || ix.Postings() != postings {
				t.Errorf("%s seed %d: Len %d Postings %d, want %d and %d",
					shape.name, seed, ix.Len(), ix.Postings(), n, postings)
			}
		}
	}
}

// An Add touches every earlier record that shares a token with the new
// one, and must not allocate for any of them: only the fixed tokenizing
// cost and the pairs it returns. Every record here shares two tokens
// with all others and pairs with none, so a per-candidate allocation
// would show as a count that grows with the index.
func TestIncrementalIndexAddAllocsFlat(t *testing.T) {
	allocsAt := func(resident int) float64 {
		const runs = 50
		texts := make([]string, resident+runs+1) // AllocsPerRun warms up with one extra call
		for i := range texts {
			texts[i] = fmt.Sprintf("the of u%da u%db u%dc", i, i, i)
		}
		ix := NewIncrementalIndex(0.3)
		add := func() { ix.Add(texts[ix.Len()]) }
		for ix.Len() < resident {
			add()
		}
		// Adds inside the measured runs grow the scratch and the two
		// ubiquitous lists; amortized doubling makes that at most one
		// reallocation in a few runs, which the average rounds away.
		return testing.AllocsPerRun(runs, add)
	}
	small, large := allocsAt(200), allocsAt(3200)
	if large > small+1 {
		t.Errorf("Add allocates %.1f times at 3200 resident records, %.1f at 200: grows with the index", large, small)
	}
}
