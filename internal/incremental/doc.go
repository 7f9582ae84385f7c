// Package incremental hosts the live dedup engine: a clustering that
// stays current while records stream in, instead of being recomputed
// from scratch per batch.
//
// The engine keeps three pieces of state in lockstep. An incremental
// blocking index (internal/blocking.IncrementalIndex) turns each added
// record into candidate pairs against everything before it. A growable
// union-find holds the resolved clustering, merged monotonically across
// resolve passes. And an answer cache remembers every crowd answer ever
// paid for, so no pair is crowdsourced twice in the engine's lifetime —
// across resolve passes and across process restarts.
//
// Resolve runs the paper's machinery (PC-Pivot, Algorithm 3, then
// PC-Refine, Algorithm 5) over a scoped candidate set: the pending pairs
// the index produced since the last pass, plus zero-cost "closure" star
// edges that re-assert each already-resolved cluster touched by a
// pending pair. Transitive inference does the rest for free — pairs
// inside a resolved cluster are primed positive without a question, and
// pairs across resolved clusters are simply not candidates (the paper
// prunes f_c to 0 outside the candidate set), so the crowd only ever
// sees genuinely new pairs. The golden test pins the payoff: on a
// half/half split of the Restaurant dataset, the second wave asks
// strictly fewer questions than a from-scratch batch run, at batch-level
// F1.
//
// The engine is a pure state machine: it does no I/O, and every state
// change is one journal.Event folded in by Apply — records, answers,
// and resolve effects (the resulting clustering itself, so replay
// applies recorded effects rather than re-running crowd algorithms).
// Add, AddAnswer and Resolve build those events for a bare in-memory
// engine. Durability belongs to the engine's owner: internal/shard
// appends each event to its log and then calls Apply, and recovery and
// follower replay fold the same events back through the same Apply, to
// exactly the state the log prefix describes, at any crash point.
package incremental
