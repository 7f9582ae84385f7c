// Package blocking implements candidate-pair generation for the pruning
// phase: an exact all-pairs token-Jaccard join, in a batch and an online
// form over one index representation, plus an LSH approximation and
// sorted-neighborhood keying (the classic merge/purge discipline [28],
// also used by [48] to cluster crowd answers).
//
// Paper artifacts:
//
//   - JaccardJoin (and its Parallel / ParallelObs spellings) — the
//     machine-based similarity join behind the pruning phase
//     (Section 3; Section 6.1 fixes Jaccard with τ = 0.3).
//   - MinHashJoin — an LSH approximation of the same join, for scale.
//   - SortedNeighborhood — merge/purge windowing [28].
//
// Both exact joins run on the index in index.go: tokens interned to
// dense integers, per token the ascending list of records holding it,
// per record its distinct-token count. Overlaps are counted, never
// verified by comparing strings: walking the posting lists of a
// record's tokens and bumping a per-record counter yields |q ∩ r| for
// every record r met, and with the two set sizes the score is
// c/(|q|+|r|−c) — the float expression similarity.JaccardSorted
// evaluates, so scores are bit-identical to it. For two set sizes the
// least overlap that clears τ is tabulated once with that same float
// comparison (requiredOverlaps), which makes every bound below a
// restatement of the emission test rather than an estimate of it.
//
// IncrementalIndex is the online form (internal/incremental, and
// internal/shard's cross-shard probe): each Add interns one record and
// walks all of its posting lists, so the counter of every record it
// shares a token with is the exact overlap and nothing is filtered.
//
// JaccardJoin is the batch form (join.go). It fills the same index
// from all records, ranks tokens by ascending document frequency, and
// probes each record against the earlier ones, walking only its prefix
// — the rarest la−a+1 of its la tokens, where a is the least overlap
// any partner needs — and skipping on first touch any record that can
// no longer reach the overlap its size requires. That skip is what a
// token held by every record needs: dataset.Synthetic puts one inside
// every prefix, so all n²/2 pairs meet in a posting list, and all but
// about two per emitted pair are turned away by two integer compares.
// Survivors are finished by an integer merge of the unwalked suffix.
// BenchmarkJaccardJoin on the repository benchmark's own shapes, one
// worker: 25 µs per record at 10 000 sparse records (2.14 candidates
// completed per pair emitted), 24 µs at 1 500 dense ones (1.03); the
// string-merge join it replaced took 375 µs and 60 µs on two workers.
//
// The probe side fans out over a worker pool — private counter per
// worker, one shared read-only index, each chunk of probing records
// leaving its pairs in the chunk's own slot, the slots concatenated in
// chunk order and one total-order sort (SortScored) — so output is
// byte-identical at every worker count, the sort is handed the same
// input whichever worker ran which chunk, and one worker is the same
// code, not a reference implementation. Two workers measure 16 and 22
// µs per record on the shapes above: the build and the sort stay
// single-threaded. The *Obs variants report the pruning/* funnel
// counters and the index and probe phase timers defined in metrics.go.
package blocking
