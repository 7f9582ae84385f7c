package blocking

import (
	"math"
	"strings"

	"acd/internal/record"
)

// index is the representation both exact joins run on: tokens interned
// to dense integer ids in first-seen order, and for every token the
// ascending list of records holding it. Records are numbered by
// insertion order. The batch join fills one from all its records and
// then probes it read-only from several workers; IncrementalIndex
// probes after every insertion.
type index struct {
	ids      map[string]int32 // token -> dense token id
	postings [][]int32        // token id -> records holding it, ascending
	sizes    []int32          // record -> distinct token count
	entries  int              // total postings entries
}

func newIndex() index { return index{ids: make(map[string]int32)} }

// add indexes the next record (its id is the pre-call len(ix.sizes))
// given its canonical text, and appends its distinct token ids to dst.
// The record's own entry is the last of each list it joins, which is
// also how a token repeated inside the record is recognised.
func (ix *index) add(text string, dst []int32) []int32 {
	id := int32(len(ix.sizes))
	from := len(dst)
	for _, tok := range record.Tokens(text) {
		tid, known := ix.ids[tok]
		if !known {
			tid = int32(len(ix.postings))
			// The token is a substring of the normalized text; a copy
			// keeps the map from pinning every record's text.
			ix.ids[strings.Clone(tok)] = tid
			ix.postings = append(ix.postings, nil)
		}
		list := ix.postings[tid]
		if n := len(list); n > 0 && list[n-1] == id {
			continue
		}
		ix.postings[tid] = append(list, id)
		dst = append(dst, tid)
	}
	size := len(dst) - from
	ix.sizes = append(ix.sizes, int32(size))
	ix.entries += size
	return dst
}

// counter is the scratch of one probe: how many probed tokens each
// earlier record shares with the probing record. A worker owns one and
// reuses it for every record it probes, so a probe allocates nothing
// per candidate.
type counter struct {
	overlap []int32 // record -> shared tokens counted so far; all zero between probes
	touched []int32 // records with overlap > 0, in first-touch order
}

// score is the Jaccard similarity of two sets whose sizes sum to sum
// and which share c tokens: the float expression
// similarity.JaccardSorted evaluates, so a score derived from a count is
// bit-identical to one derived from a string merge.
func score(c, sum int32) float64 {
	return float64(c) / float64(sum-c)
}

// unreachable is the required overlap of two set sizes no overlap can
// satisfy.
const unreachable = math.MaxInt32

// requiredOverlaps returns, for every summed size s = la+lb up to
// maxSum, the smallest c ≥ 1 with score(c, s) > tau (unreachable when
// none exists: a pair shares at most s/2 tokens). The score depends on
// the sizes only through s and grows with c, so for a pair of sizes la
// and lb "c ≥ need[la+lb]" is the emission test itself, not an
// approximation of it — which is what lets a probe drop a candidate on
// a bound without ever disagreeing with the float comparison. The table
// is nondecreasing in s, so one pointer fills it in O(maxSum).
func requiredOverlaps(tau float64, maxSum int) []int32 {
	need := make([]int32, maxSum+1)
	c := int32(1)
	for s := range need {
		s := int32(s)
		for 2*c <= s && !(score(c, s) > tau) {
			c++
		}
		need[s] = c
		if 2*c > s {
			need[s] = unreachable
		}
	}
	return need
}
