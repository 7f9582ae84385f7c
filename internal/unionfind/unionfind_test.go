package unionfind

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	uf := New(5)
	if uf.Count() != 5 || uf.Len() != 5 {
		t.Fatalf("fresh forest: count=%d len=%d", uf.Count(), uf.Len())
	}
	if !uf.Union(0, 1) {
		t.Errorf("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Errorf("repeated union should not merge")
	}
	if !uf.Same(0, 1) || uf.Same(0, 2) {
		t.Errorf("Same wrong after union")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Count() != 2 {
		t.Errorf("count = %d, want 2", uf.Count())
	}
	want := [][]int{{0, 1, 2, 3}, {4}}
	if got := uf.Sets(); !reflect.DeepEqual(got, want) {
		t.Errorf("Sets = %v, want %v", got, want)
	}
}

func TestSetsDeterministic(t *testing.T) {
	uf := New(6)
	uf.Union(5, 2)
	uf.Union(4, 1)
	want := [][]int{{0}, {1, 4}, {2, 5}, {3}}
	if got := uf.Sets(); !reflect.DeepEqual(got, want) {
		t.Errorf("Sets = %v, want %v", got, want)
	}
}

// Property: after a random sequence of unions, Same agrees with a naive
// reference implementation, and Count equals the number of reference sets.
func TestAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		uf := New(n)
		// Naive: label array.
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for k := 0; k < 3*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			uf.Union(a, b)
			if label[a] != label[b] {
				relabel(label[a], label[b])
			}
		}
		distinct := map[int]struct{}{}
		for i := 0; i < n; i++ {
			distinct[label[i]] = struct{}{}
			for j := i + 1; j < n; j++ {
				if uf.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return uf.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sets always forms a partition — disjoint, covering, members sorted.
func TestSetsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		uf := New(n)
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				uf.Union(a, b)
			}
		}
		seen := make([]bool, n)
		total := 0
		for _, set := range uf.Sets() {
			for i, m := range set {
				if seen[m] {
					return false
				}
				seen[m] = true
				if i > 0 && set[i-1] >= m {
					return false
				}
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// setsByMap is the map-grouping Sets that Growable shipped with, kept
// as the reference the slice-grouping one is compared against.
func setsByMap(u *Growable, n int) [][]int {
	bySet := make(map[int][]int)
	var roots []int
	for i := 0; i < n; i++ {
		r := u.Find(i)
		if _, ok := bySet[r]; !ok {
			roots = append(roots, r)
		}
		bySet[r] = append(bySet[r], i)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, bySet[r])
	}
	return out
}

// Property: over random forests — grown in steps, unioned at random,
// listed over the whole universe and over prefixes of it — Growable.Sets
// returns exactly what the map-grouping reference returns, and a set
// handed out cannot be appended into its neighbour.
func TestGrowableSetsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := &Growable{}
		for step := 0; step < 4; step++ {
			u.Grow(u.Len() + rng.Intn(30))
			for k := rng.Intn(2 * (u.Len() + 1)); k > 0 && u.Len() > 0; k-- {
				u.Union(rng.Intn(u.Len()), rng.Intn(u.Len()))
			}
			for _, n := range []int{u.Len(), rng.Intn(u.Len() + 1), 0} {
				got, want := u.Sets(n), setsByMap(u, n)
				if got == nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Sets(%d) = %v, reference %v", seed, step, n, got, want)
				}
				if len(got) > 1 {
					_ = append(got[0], -1)
					if again := u.Sets(n); !reflect.DeepEqual(got, again) {
						t.Fatalf("seed %d: appending to a set changed the listing: %v, want %v", seed, got, again)
					}
				}
			}
		}
	}
}
