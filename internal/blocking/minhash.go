package blocking

import (
	"hash/fnv"

	"acd/internal/record"
	"acd/internal/similarity"
)

// MinHash + LSH candidate generation: an alternative to the exact
// indexed join for corpora too large to index exactly. Records
// are summarized as MinHash signatures (bands × rows hash minima);
// records colliding in any band become candidates and are then verified
// with the exact Jaccard score, so the output has perfect precision and
// probabilistic recall 1 − (1 − s^rows)^bands for a pair of true
// similarity s.

// MinHashConfig parameterizes the signature and banding scheme.
type MinHashConfig struct {
	// Bands and Rows define the LSH scheme; signature length is
	// Bands × Rows. Zero values default to 16 bands × 4 rows, tuned for
	// a τ ≈ 0.3 threshold (collision probability ≈ 99.5% at s = 0.5,
	// ≈ 74% at s = 0.3).
	Bands int
	Rows  int
	// Seed perturbs the hash family.
	Seed uint64
}

func (c MinHashConfig) withDefaults() MinHashConfig {
	if c.Bands == 0 {
		c.Bands = 16
	}
	if c.Rows == 0 {
		c.Rows = 4
	}
	return c
}

// MinHashJoin returns candidate pairs with exact Jaccard similarity
// above tau, generated via MinHash LSH. Output ordering matches
// JaccardJoin (descending score). Some qualifying pairs may be missed
// (LSH recall is probabilistic); none are spurious.
func MinHashJoin(records []record.Record, tau float64, cfg MinHashConfig) []ScoredPair {
	cfg = cfg.withDefaults()
	k := cfg.Bands * cfg.Rows

	tokens := make([][]string, len(records))
	sigs := make([][]uint64, len(records))
	for i, r := range records {
		tokens[i] = record.SortedTokens(r.Text())
		sigs[i] = minhashSignature(tokens[i], k, cfg.Seed)
	}

	seen := make(map[record.Pair]struct{})
	var out []ScoredPair
	for band := 0; band < cfg.Bands; band++ {
		buckets := make(map[uint64][]int)
		for i, sig := range sigs {
			if sig == nil {
				continue // empty record: no tokens, no candidates
			}
			key := bandKey(sig[band*cfg.Rows:(band+1)*cfg.Rows], uint64(band))
			buckets[key] = append(buckets[key], i)
		}
		for _, ids := range buckets {
			for x := 0; x < len(ids); x++ {
				for y := x + 1; y < len(ids); y++ {
					pair := record.MakePair(record.ID(ids[x]), record.ID(ids[y]))
					if _, dup := seen[pair]; dup {
						continue
					}
					seen[pair] = struct{}{}
					score := similarity.JaccardSorted(tokens[ids[x]], tokens[ids[y]])
					if score > tau {
						out = append(out, ScoredPair{Pair: pair, Score: score})
					}
				}
			}
		}
	}
	SortScored(out)
	return out
}

// minhashSignature computes k hash minima over the token set; nil for
// empty token sets.
func minhashSignature(tokens []string, k int, seed uint64) []uint64 {
	if len(tokens) == 0 {
		return nil
	}
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, t := range tokens {
		base := hashToken(t)
		for i := 0; i < k; i++ {
			// A cheap universal-style family: mix the base hash with a
			// per-function odd multiplier derived from (seed, i).
			h := (base ^ (seed + uint64(i)*0x9e3779b97f4a7c15)) * 0xff51afd7ed558ccd
			h ^= h >> 33
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

func hashToken(t string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t))
	return h.Sum64()
}

// bandKey hashes one band's rows into a bucket key.
func bandKey(rows []uint64, band uint64) uint64 {
	h := band*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	for _, r := range rows {
		h ^= r
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}
