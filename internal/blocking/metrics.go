package blocking

// Metric names emitted by the instrumented similarity joins (the *Obs
// variants in join.go). Phase timers use the same "pruning/" prefix so
// the whole machine phase renders as one group.
const (
	// MetricPairsVerified counts the candidate pairs whose exact score
	// was computed: for the indexed join, candidates whose overlap was
	// completed after the bound checks; every pair for the naive join —
	// the "pairs in" of the pruning funnel.
	MetricPairsVerified = "pruning/pairs_verified"
	// MetricPairsEmitted counts pairs that survived the threshold — the
	// "pairs out", i.e. the candidate set size |S|.
	MetricPairsEmitted = "pruning/pairs_emitted"

	// Phase timer names of the join's two stages: the single-threaded
	// index build, and the fanned-out probe (for the naive join, the
	// all-pairs scan).
	PhaseIndex = "pruning/index"
	PhaseProbe = "pruning/probe"
)
