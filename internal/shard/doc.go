// Package shard partitions the online dedup subsystem into N
// independent shards routed over the blocking-token space, while
// provably asking the crowd the same questions as a single engine.
//
// Each shard owns an incremental.Engine — a pure state machine — and
// the log that makes it durable, fed by a single-owner goroutine so
// writes to different shards never contend — the expensive part of a
// write (the WAL fsync) runs in parallel across shards. A record's home shard is the owner of its
// minimum normalized token, so routing is deterministic and derivable
// from the record alone.
//
// Same-shard candidate pairs are discovered by each shard's own
// blocking index. Cross-shard pairs cannot be: no shard sees both
// records. The router therefore keeps a global probe index over every
// record (in global-id order) and diverts the cross-shard pairs it
// emits into a handoff queue, so the union of per-shard candidates and
// the handoff queue is exactly the candidate set a single engine would
// have produced — no candidate pair is lost to partitioning.
//
// Resolve passes are global: PC-Pivot's Equation-4 batch boundaries
// couple candidate components through the shared wasted-pair budget, so
// independent per-shard resolves could never reproduce the single
// engine's question sequence. The router instead gathers every shard's
// pending pairs and cached answers into one incremental.ResolveState
// and runs the exact same incremental.RunResolve the single engine
// runs — equivalence by construction, gated by the shard-golden test.
// The resolve effect is committed router-journal-first, then fanned out
// to each shard's journal; recovery repairs any shard that crashed
// between the two.
//
// Everything the journals determine lives in one state value changed
// only by folding events. A live Group appends an event to a log (the
// package's one durability type; nil when volatile) and folds it;
// recovery folds what each log held; a follower's Standby folds what
// the leader ships. The three cannot drift: they are one fold.
//
// Reads never take a write lock: every mutation publishes an immutable
// Snapshot behind an atomic pointer, and GET /clusters-style readers
// load it wait-free.
package shard
