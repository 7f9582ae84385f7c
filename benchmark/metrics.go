package main

// metricDecl declares one metric the benchmark prints. BENCHMARK.json
// repeats name, unit, direction and bound; a test keeps the two equal.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	// Exact marks counts that repeat exactly for one seed; compare
	// demands equality when both sides ran the same seeds.
	Exact bool
	// Absolute makes compare read Bound as an absolute difference (f1
	// sits near 1, where the two readings nearly coincide).
	Absolute bool
	// On names the workloads whose measured phase produces the metric
	// (empty = all four). The contract wants every end-to-end metric on
	// every workload, so elsewhere the workload's epilogue probe supplies
	// the figure (see README.md); compare tags those rows.
	On []string
}

// The workloads a metric is at home on, as ISSUE 11 scopes them.
var (
	served     = []string{"ingest-durable", "crowd-loop", "serve-mixed"}
	crowdAsked = []string{"batch-dedup", "crowd-loop", "serve-mixed"}
	answered   = []string{"crowd-loop", "serve-mixed"}
)

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "server_cpu_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "records_per_s", Unit: "records/s", Better: "higher", Bound: 0.15},
	{Name: "records_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2, On: served},
	{Name: "answers_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: answered},
	{Name: "resolve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: answered},
	{Name: "clusters_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: []string{"serve-mixed"}},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.15, On: served},
	{Name: "crowd_pairs", Unit: "pairs", Better: "lower", Bound: 0.2, Exact: true, On: crowdAsked},
	{Name: "crowd_iterations", Unit: "iterations", Better: "lower", Bound: 0.25, Exact: true, On: crowdAsked},
	{Name: "crowd_cents", Unit: "cents", Better: "lower", Bound: 0.2, Exact: true, On: crowdAsked},
	{Name: "f1", Unit: "ratio", Better: "higher", Bound: 0.02, Absolute: true, On: crowdAsked},
}

// perLayer lists the metrics of single layers, produced by a traced
// run. A layer a workload never enters reports zero work there (the
// idle table in main.go says which).
var perLayer = []metricDecl{
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "http.self_s", Unit: "s", Better: "lower"},

	{Name: "serve.self_s", Unit: "s", Better: "lower"},
	{Name: "serve.handler_s.records", Unit: "s", Better: "lower"},
	{Name: "serve.handler_s.answers", Unit: "s", Better: "lower"},
	{Name: "serve.handler_s.resolve", Unit: "s", Better: "lower"},
	{Name: "serve.handler_s.clusters", Unit: "s", Better: "lower"},
	{Name: "serve.response_bytes.clusters", Unit: "bytes", Better: "lower"},
	{Name: "serve.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "serve.cpu_s", Unit: "s", Better: "lower"},

	{Name: "shard.self_s", Unit: "s", Better: "lower"},
	{Name: "shard.add_s", Unit: "s", Better: "lower"},
	{Name: "shard.add_answer_s", Unit: "s", Better: "lower"},
	{Name: "shard.resolve_s", Unit: "s", Better: "lower"},
	{Name: "shard.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "shard.add_growth", Unit: "ratio", Better: "lower"},
	{Name: "shard.cross_shard_answers", Unit: "count", Better: "lower"},

	{Name: "incremental.self_s", Unit: "s", Better: "lower"},
	{Name: "incremental.add_s", Unit: "s", Better: "lower"},
	{Name: "incremental.add_growth", Unit: "ratio", Better: "lower"},
	{Name: "incremental.resolve_s", Unit: "s", Better: "lower"},
	{Name: "incremental.questions_asked", Unit: "count", Better: "lower"},
	{Name: "incremental.residual_pairs", Unit: "count", Better: "lower"},
	{Name: "incremental.inferred_positive", Unit: "count", Better: "higher"},
	{Name: "incremental.inferred_negative", Unit: "count", Better: "higher"},
	{Name: "incremental.closure_edges", Unit: "count", Better: "lower"},
	{Name: "incremental.checkpoints", Unit: "count", Better: "lower"},
	{Name: "incremental.journal_events", Unit: "count", Better: "lower"},
	{Name: "incremental.pending_pairs_final", Unit: "count", Better: "lower"},

	{Name: "journal.sync_s", Unit: "s", Better: "lower"},
	{Name: "journal.write_s", Unit: "s", Better: "lower"},
	{Name: "journal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "journal.fsyncs_per_record", Unit: "ratio", Better: "lower"},
	{Name: "journal.fsyncs_per_answer", Unit: "ratio", Better: "lower"},
	{Name: "journal.syncdirs", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "journal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "journal.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "journal.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "journal.resolve_bytes", Unit: "bytes", Better: "lower"},
	{Name: "journal.group_commits", Unit: "count", Better: "lower"},
	{Name: "journal.events_per_group", Unit: "ratio", Better: "higher"},
	{Name: "journal.segments_rotated", Unit: "count", Better: "lower"},
	{Name: "journal.disk_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "journal.recover_s", Unit: "s", Better: "lower"},
	{Name: "journal.recover_events", Unit: "count", Better: "lower"},

	{Name: "pruning.seconds.sparse", Unit: "s", Better: "lower"},
	{Name: "pruning.seconds.dense", Unit: "s", Better: "lower"},
	{Name: "pruning.pairs_verified", Unit: "count", Better: "lower"},
	{Name: "pruning.pairs_emitted", Unit: "count", Better: "lower"},

	{Name: "core.pivot_s", Unit: "s", Better: "lower"},
	{Name: "core.pivot_rounds", Unit: "count", Better: "lower"},
	{Name: "core.pairs_issued", Unit: "count", Better: "lower"},
	{Name: "core.pairs_wasted", Unit: "count", Better: "lower"},

	{Name: "refine.seconds", Unit: "s", Better: "lower"},
	{Name: "refine.ops_applied", Unit: "count", Better: "higher"},
	{Name: "refine.pairs_asked", Unit: "count", Better: "lower"},

	{Name: "crowd.source_s", Unit: "s", Better: "lower"},
	{Name: "crowd.batches", Unit: "count", Better: "lower"},
	{Name: "crowd.pairs", Unit: "count", Better: "lower"},
	{Name: "crowd.questions_cached", Unit: "count", Better: "higher"},
	{Name: "crowd.oracle_invocations", Unit: "count", Better: "lower"},

	{Name: "market.self_s", Unit: "s", Better: "lower"},
	{Name: "market.routed", Unit: "count", Better: "lower"},
	{Name: "market.short_circuited", Unit: "count", Better: "higher"},
	{Name: "market.spend_cents", Unit: "cents", Better: "lower"},
	{Name: "market.fallbacks", Unit: "count", Better: "lower"},

	{Name: "loadgen.cpu_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.max_inflight", Unit: "count", Better: "lower"},
	{Name: "loadgen.records_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.answers_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.clusters_p99_ms", Unit: "ms", Better: "lower"},
}

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"batch-dedup", "ingest-durable", "crowd-loop", "serve-mixed"}
