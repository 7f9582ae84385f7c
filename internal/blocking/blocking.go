package blocking

import (
	"cmp"
	"slices"
	"sort"

	"acd/internal/record"
	"acd/internal/similarity"
)

// ScoredPair is a candidate pair with its machine similarity score.
type ScoredPair struct {
	Pair  record.Pair
	Score float64
}

// SortScored puts scored pairs in the order every join and the pruning
// phase emit: descending score, ties broken by ascending pair. The
// order is total over distinct pairs, so the result does not depend on
// the order the pairs were produced in.
func SortScored(sp []ScoredPair) {
	slices.SortFunc(sp, func(a, b ScoredPair) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		if c := cmp.Compare(a.Pair.Lo, b.Pair.Lo); c != 0 {
			return c
		}
		return cmp.Compare(a.Pair.Hi, b.Pair.Hi)
	})
}

// SortedNeighborhoodKey returns the merge/purge sort key of a record: its
// distinct tokens in sorted order concatenated. Records with similar
// token sets sort near each other.
func SortedNeighborhoodKey(r record.Record) string {
	toks := record.SortedTokens(r.Text())
	key := ""
	for _, t := range toks {
		key += t
	}
	return key
}

// SortedNeighborhood returns the candidate pairs produced by a single
// sorted-neighborhood pass with the given window size: records are sorted
// by key and every pair within a sliding window of w records becomes a
// candidate. Scores are token Jaccard.
func SortedNeighborhood(records []record.Record, window int) []ScoredPair {
	n := len(records)
	type keyed struct {
		key string
		idx int
	}
	ks := make([]keyed, n)
	for i, r := range records {
		ks[i] = keyed{key: SortedNeighborhoodKey(r), idx: i}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		return ks[i].idx < ks[j].idx
	})
	tokens := make([][]string, n)
	for i, r := range records {
		tokens[i] = record.SortedTokens(r.Text())
	}
	seen := make(map[record.Pair]struct{})
	var out []ScoredPair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j <= i+window-1; j++ {
			a, b := ks[i].idx, ks[j].idx
			pair := record.MakePair(records[a].ID, records[b].ID)
			if _, dup := seen[pair]; dup {
				continue
			}
			seen[pair] = struct{}{}
			out = append(out, ScoredPair{
				Pair:  pair,
				Score: similarity.JaccardSorted(tokens[a], tokens[b]),
			})
		}
	}
	SortScored(out)
	return out
}
