// Package blocking implements candidate-pair generation for the pruning
// phase: an inverted-index all-pairs Jaccard join with prefix filtering,
// plus sorted-neighborhood keying (the classic merge/purge discipline
// [28], also used by [48] to cluster crowd answers).
//
// The join avoids the O(n²) pair scan that a naive pruning phase would
// need: with threshold τ, a pair can reach Jaccard ≥ τ only if the two
// records share a token in their length-dependent prefixes, so only
// records colliding in the inverted index over prefixes are verified.
//
// Paper artifacts:
//
//   - JaccardJoin / JaccardJoinTokens — the machine-based similarity
//     join behind the pruning phase (Section 3; Section 6.1 fixes
//     Jaccard with τ = 0.3).
//   - MinHashJoin — an LSH approximation of the same join, for scale.
//   - SortedNeighborhood — merge/purge windowing [28].
//
// IncrementalIndex is the online form of the same join, for records that
// arrive one at a time (internal/incremental, and internal/shard's
// cross-shard probe). It keeps no prefix and verifies no candidates: it
// interns tokens to integers, keeps a full inverted index, and on each
// Add count-merges the new record's posting lists, which yields the
// exact overlap — hence the exact Jaccard score — with every record
// sharing a token. That is exact by construction rather than by a
// filter's completeness proof, and it is what makes an Add cost a walk
// over integers instead of a string merge per candidate.
//
// The *Parallel variants in parallel.go shard the join over a worker
// pool with byte-identical output; the *Obs variants additionally
// report the pruning/* funnel counters, per-stage phase timers, and
// per-shard build-time distributions defined in metrics.go.
package blocking
