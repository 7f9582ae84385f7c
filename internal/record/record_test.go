package record

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"Hello, World!", "hello world"},
		{"  A--B__C  ", "a b c"},
		{"Chevrolet", "chevrolet"},
		{"ABC123", "abc123"},
		{"!!!", ""},
		{"a", "a"},
		{"Déjà vu", "d j vu"}, // non-ASCII letters are treated as separators
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("The Quick, quick brown Fox")
	want := []string{"the", "quick", "quick", "brown", "fox"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
	if Tokens("") != nil {
		t.Errorf("Tokens(\"\") should be nil")
	}
	if Tokens("!!") != nil {
		t.Errorf("Tokens(\"!!\") should be nil")
	}
}

func TestTokenSetAndSortedTokens(t *testing.T) {
	set := TokenSet("b a b c")
	if len(set) != 3 {
		t.Fatalf("TokenSet size = %d, want 3", len(set))
	}
	sorted := SortedTokens("b a b c")
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(sorted, want) {
		t.Errorf("SortedTokens = %v, want %v", sorted, want)
	}
}

func TestRecordText(t *testing.T) {
	r := New(3, map[string]string{"name": "Fuji", "city": "Tokyo", "empty": ""})
	// Keys sorted: city, empty (skipped), name.
	if got, want := r.Text(), "Tokyo Fuji"; got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
	if r.Entity != -1 {
		t.Errorf("New record Entity = %d, want -1", r.Entity)
	}
	if r.Field("city") != "Tokyo" || r.Field("missing") != "" {
		t.Errorf("Field lookup wrong")
	}
	var empty Record
	if empty.Text() != "" {
		t.Errorf("empty record Text = %q, want \"\"", empty.Text())
	}
}

func TestMakePair(t *testing.T) {
	p := MakePair(7, 2)
	if p.Lo != 2 || p.Hi != 7 {
		t.Errorf("MakePair(7,2) = %v, want (2,7)", p)
	}
	if MakePair(2, 7) != p {
		t.Errorf("MakePair not symmetric")
	}
	if p.Other(2) != 7 || p.Other(7) != 2 {
		t.Errorf("Other lookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MakePair(5,5) should panic")
		}
	}()
	MakePair(5, 5)
}

func TestPairOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Other on non-member should panic")
		}
	}()
	MakePair(1, 2).Other(3)
}

func TestPairString(t *testing.T) {
	if got := MakePair(4, 1).String(); got != "(1,4)" {
		t.Errorf("Pair.String = %q", got)
	}
}

// Property: MakePair is symmetric and canonical for arbitrary distinct IDs.
func TestMakePairProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := ID(a), ID(b)
		if x == y {
			return true
		}
		p, q := MakePair(x, y), MakePair(y, x)
		return p == q && p.Lo < p.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Normalize is idempotent and its output tokens are sorted-safe
// (normalizing a normalized string changes nothing).
func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SortedTokens output is sorted and duplicate-free.
func TestSortedTokensProperty(t *testing.T) {
	f := func(s string) bool {
		toks := SortedTokens(s)
		if !sort.StringsAreSorted(toks) {
			return false
		}
		for i := 1; i < len(toks); i++ {
			if toks[i] == toks[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	pairs := []Pair{
		{Lo: 0, Hi: 1},
		{Lo: 0, Hi: 0},
		{Lo: 7, Hi: 1 << 20},
		{Lo: 1<<32 - 2, Hi: 1<<32 - 1},
		{Lo: 1<<32 - 1, Hi: 0}, // non-canonical pairs pack too
	}
	seen := map[PairKey]Pair{}
	for _, p := range pairs {
		k := p.Key()
		if got := k.Pair(); got != p {
			t.Errorf("%v.Key().Pair() = %v", p, got)
		}
		if q, dup := seen[k]; dup {
			t.Errorf("%v and %v share key %#x", p, q, uint64(k))
		}
		seen[k] = p
	}
	f := func(lo, hi uint32) bool {
		p := Pair{Lo: ID(lo), Hi: ID(hi)}
		return p.Key().Pair() == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairKeyRefusesOutOfRange(t *testing.T) {
	for _, p := range []Pair{
		{Lo: -1, Hi: 3},
		{Lo: 3, Hi: -1},
		{Lo: 0, Hi: 1 << 32},
		{Lo: 1 << 32, Hi: 1<<32 + 1},
		{Lo: 1 << 40, Hi: 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.Key() did not panic", p)
				}
			}()
			_ = p.Key()
		}()
	}
}
