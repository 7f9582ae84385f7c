package record

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ID identifies a record within a dataset. IDs are dense: a dataset of n
// records uses IDs 0..n-1.
type ID int

// Record is a single record to be deduplicated. Fields hold the raw
// attribute values (e.g. "title", "authors" for a citation record).
// Entity is the ground-truth entity identifier when known (-1 otherwise);
// it is used only by the crowd simulator and by evaluation code, never by
// the deduplication algorithms themselves.
type Record struct {
	ID     ID
	Fields map[string]string
	Entity int
}

// New returns a record with the given ID and fields and no ground truth.
func New(id ID, fields map[string]string) Record {
	return Record{ID: id, Fields: fields, Entity: -1}
}

// Text concatenates all field values in a deterministic (sorted-key)
// order. It is the canonical string form fed to tokenizers and
// character-level similarity metrics.
func (r Record) Text() string {
	if len(r.Fields) == 0 {
		return ""
	}
	keys := make([]string, 0, len(r.Fields))
	for k := range r.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		if v := r.Fields[k]; v != "" {
			parts = append(parts, v)
		}
	}
	return strings.Join(parts, " ")
}

// Field returns the value of the named field, or "" if absent.
func (r Record) Field(name string) string { return r.Fields[name] }

// String implements fmt.Stringer for debugging output.
func (r Record) String() string {
	return fmt.Sprintf("record %d: %s", r.ID, r.Text())
}

// Pair identifies an unordered pair of records. The canonical form has
// Lo < Hi; construct pairs with MakePair to maintain that invariant.
type Pair struct {
	Lo, Hi ID
}

// MakePair returns the canonical (Lo < Hi) pair for two distinct IDs.
// It panics if a == b, since a record is never paired with itself.
func MakePair(a, b ID) Pair {
	switch {
	case a < b:
		return Pair{Lo: a, Hi: b}
	case b < a:
		return Pair{Lo: b, Hi: a}
	default:
		panic(fmt.Sprintf("record: self-pair (%d, %d)", a, b))
	}
}

// Other returns the pair member that is not id. It panics if id is not a
// member of the pair.
func (p Pair) Other(id ID) ID {
	switch id {
	case p.Lo:
		return p.Hi
	case p.Hi:
		return p.Lo
	default:
		panic(fmt.Sprintf("record: %d not in pair (%d, %d)", id, p.Lo, p.Hi))
	}
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.Lo, p.Hi) }

// PairKey is a Pair packed into one word — Lo in the high 32 bits, Hi
// in the low 32 — so per-pair maps hash and compare 8 bytes instead of
// a 16-byte struct. It is the one pair-keyed map key of the hot crowd
// path (crowd.Session, the marketplace).
type PairKey uint64

// Key packs p. Both ids must lie in [0, 2³²); anything else panics
// rather than truncate, since two distinct pairs sharing a key would
// silently share an answer.
func (p Pair) Key() PairKey {
	if uint64(p.Lo) > math.MaxUint32 || uint64(p.Hi) > math.MaxUint32 {
		panic(fmt.Sprintf("record: pair %v does not fit a PairKey", p))
	}
	return PairKey(uint64(p.Lo)<<32 | uint64(p.Hi))
}

// Pair unpacks k.
func (k PairKey) Pair() Pair { return Pair{Lo: ID(k >> 32), Hi: ID(uint32(k))} }

// Normalize lowercases s and collapses every run of non-alphanumeric
// characters to a single space. It is the shared preprocessing step for
// tokenization and phonetic keying.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true // suppress leading space
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteRune(c)
			space = false
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c - 'A' + 'a')
			space = false
		default:
			if !space {
				b.WriteByte(' ')
				space = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Tokens splits s into normalized tokens.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// TokenSet returns the distinct normalized tokens of s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range Tokens(s) {
		set[t] = struct{}{}
	}
	return set
}

// SortedTokens returns the distinct normalized tokens of s in sorted
// order. Sorted token slices are the representation used by the MinHash
// join's verification and by sorted-neighborhood keying.
func SortedTokens(s string) []string {
	set := TokenSet(s)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
