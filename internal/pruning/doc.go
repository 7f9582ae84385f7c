// Package pruning implements the first phase of ACD (Section 3): it
// builds the machine-based similarity function f over a record set and
// emits the candidate set S of pairs with f(r_i, r_j) > τ. Everything
// downstream (the crowd phases, all baselines) consumes its Candidates
// result, matching the paper's setup where every method shares the same
// pruning phase (Section 6.1: Jaccard, τ = 0.3).
//
// Paper artifacts:
//
//   - Prune — the pruning phase itself; DefaultTau is the paper's
//     τ = 0.3. The join implementations live in internal/blocking.
//   - Candidates — the candidate set S with machine scores f, in the
//     descending-score issue order TransM depends on. S is fixed for a
//     campaign, so Candidates.Index maps a pair to its dense position
//     in S (a binary search in a CSR row, no hashing); Score and
//     Contains read through it, and Machine materializes the score map
//     only for the machine-only baselines that take one.
//
// Options.Obs routes the pruning/* funnel metrics and join-stage phase
// timers to a recorder; recording never changes the output.
package pruning
