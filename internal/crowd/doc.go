// Package crowd simulates the Amazon Mechanical Turk substrate of the
// paper's experiments (Section 6.1, "AMT Setting").
//
// The paper never queries AMT live during algorithm runs: all candidate
// pairs are posted once, the answers are recorded in a local file F, and
// every algorithm replays answers from F so that all methods see
// identical crowd output. This package reproduces that design. An
// AnswerSet plays the role of F: it holds, for every candidate pair, the
// crowd score f_c (the fraction of workers marking the pair a duplicate)
// drawn once from a seeded worker-error model. A Session wraps an
// AnswerSet for one algorithm run and does the accounting the evaluation
// reports: distinct pairs crowdsourced, crowd iterations (batches of
// HITs), HITs, and monetary cost.
//
// Worker errors follow a per-pair difficulty d: each worker independently
// answers the pair incorrectly with probability d. Majority votes over 3
// or 5 workers then exhibit exactly the paper's observed behaviour —
// easy pairs are almost always right, while pairs with d > 0.5 are
// *systematically* wrong no matter how many workers vote (which is why
// Table 3's Paper dataset barely improves from 3 to 5 workers). See
// calibrate.go for how difficulties are fit to Table 3's error rates.
//
// The Session is also the accounting chokepoint of the observability
// layer: it is the only component that consults the answer oracle, so
// on an instrumented run crowd/questions_answered must equal
// crowd/oracle_invocations exactly (metrics.go documents the crowd/*
// names; TestMetricsMatchOracleInvocations in internal/core asserts the
// invariant end to end). Pool, Qualification and LatencyModel extend
// the simulation with AMT-style worker pools, admission rules, and
// wall-clock latency estimates.
//
// The seam around that chokepoint has one rule: sources answer; the
// Session accounts and notifies. A Source may offer richer paths
// (BatchSource, ContextBatchSource, Biller, VoteCounter, RecorderSetter,
// RecorderCarrier); only the Session discovers them, so a source reaches
// NewSession unwrapped, and the batch ladder is spelled once, in
// AnswerBatch. Code that merely watches answers go by — a progress
// callback, the incremental engine's journal sink — registers
// Session.Observe instead of wrapping the source. Wrappers that
// transform answers (ChaosSource, ReliableSource, AsyncSource) stay
// sources and forward only the recorder.
//
// The fault-tolerant execution layer (faulttol.go) hardens any Source
// against a misbehaving crowd backend: ReliableSource adds per-question
// deadlines, bounded retries with jittered backoff, hedged re-issue of
// stragglers, and graceful degradation to the machine probability when
// the retry budget is exhausted. Its deterministic test substrate is
// ChaosSource (chaos.go), a seeded fault injector (drops, transient
// errors, latency spikes, duplicated deliveries, adversarial bursts)
// that runs entirely on a VirtualClock (clock.go) — simulated latency
// is arithmetic, never sleeps — so chaos campaigns replay exactly. See
// DESIGN.md section 5d for the state machine and the determinism
// argument.
package crowd
