package incremental

// Metric names the engine emits through its configured obs.Recorder.
// The crowd-side funnel (crowd/questions_answered etc.) comes from the
// sessions each resolve pass runs; these add the engine's own ledger on
// top, most importantly the inference counters that explain why a
// resolve pass asked as little as it did.
const (
	// MetricRecordsAdded counts records entering the engine, from Add or
	// from replay.
	MetricRecordsAdded = "incremental/records_added"
	// MetricAnswersCached counts answers entering the engine cache, from
	// any provenance (resolve-time crowdsourcing, AddAnswer, recovery).
	MetricAnswersCached = "incremental/answers_cached"
	// MetricResolves counts completed resolve passes.
	MetricResolves = "incremental/resolves"
	// MetricInferredPositive counts pairs answered positively by
	// transitive closure over resolved clusters — zero crowd cost.
	MetricInferredPositive = "incremental/inferred_positive"
	// MetricInferredNegative counts previously-crowdsourced pairs whose
	// endpoints sit in different resolved clusters, excluded from the
	// scoped candidate set instead of being re-asked.
	MetricInferredNegative = "incremental/inferred_negative"
	// MetricClosureEdges counts the star edges injected to re-assert
	// resolved clusters inside a scoped resolve.
	MetricClosureEdges = "incremental/closure_edges"
	// MetricResidualPairs counts pending pairs that actually needed the
	// crowd machinery (no cached answer).
	MetricResidualPairs = "incremental/residual_pairs"
	// MetricJournalEvents, MetricCheckpoints and MetricCheckpointErrors
	// are emitted by the engine's durable owner (internal/shard's log),
	// not by the engine, which does no I/O; they keep their names so
	// dashboards and the benchmark read on.
	//
	// MetricJournalEvents counts events appended to a journal.
	MetricJournalEvents = "incremental/journal_events"
	// MetricCheckpoints counts compacted snapshots written.
	MetricCheckpoints = "incremental/checkpoints"
	// MetricCheckpointErrors counts failed automatic checkpoints. The
	// triggering mutation is journaled and applied regardless (the WAL
	// still covers the state a snapshot would have), and the checkpoint
	// retries on the next eligible event.
	MetricCheckpointErrors = "incremental/checkpoint_errors"
)
