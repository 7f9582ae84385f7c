package main

// sizes fixes how much work every workload does. Work is fixed, never
// time-boxed: the per-record cost of the system under test grows with
// its state, so a time window would make every figure depend on how
// far the window happened to reach.
type sizes struct {
	// batch-dedup: one sparse Deduplicate campaign, then DenseCampaigns
	// dense ones of DenseRecords records over DenseEntities even-sized
	// entities each.
	SparseRecords, SparseEntities int
	SparseSkew                    float64
	DenseCampaigns                int
	DenseRecords, DenseEntities   int

	// ingest-durable.
	IngestRecords, IngestEntities int
	// Restarts is the number of SIGKILL + restart cycles timed after
	// every serving workload's measured phase.
	Restarts int

	// crowd-loop: Waves × (WavePosts record posts, WaveAnswerPosts
	// answer posts, one resolve).
	Waves, WavePosts, WaveAnswerPosts int
	LoopEntities                      int

	// serve-mixed: Preload records in PreloadPost-record posts, then
	// MixedOps ops per client.
	Preload, PreloadPost int
	MixedOps             int
	MixedEntities        int

	// Probe: sequential requests per op kind the measured phase lacks —
	// sized by what a request costs, reads being cheapest — and resolve
	// passes (each behind one record and one answer post).
	ProbeRecords, ProbeAnswers, ProbeClusters, ProbeResolves int

	// SetupReps is how many times set-up is performed and timed; the
	// reported setup_s is the median.
	SetupReps int

	// Frozen marks the published sizes. Accuracy floors are enforced
	// only there: shrunk datasets hold so few true duplicate pairs that
	// a handful of flipped answers moves F1 by tenths.
	Frozen bool
}

// f1Floor is the accuracy a workload must reach at these sizes.
func (s sizes) f1Floor(frozen float64) float64 {
	if s.Frozen {
		return frozen
	}
	return 0.01
}

// clients is the number of closed-loop generator clients of the
// concurrent workloads: one per core of the box.
const clients = 2

// runSeconds is BENCHMARK.json's run_seconds: the duration the frozen
// sizes were calibrated to at the seed commit.
const runSeconds = 10

// frozenSizes are the sizes behind every published figure, selected by
// --seconds 10.
var frozenSizes = sizes{
	SparseRecords: 10000, SparseEntities: 3600, SparseSkew: 0.6,
	DenseCampaigns: 12, DenseRecords: 1500, DenseEntities: 10,

	IngestRecords: 4000, IngestEntities: 400,
	Restarts: 3,

	Waves: 16, WavePosts: 25, WaveAnswerPosts: 100,
	LoopEntities: 640,

	Preload: 1000, PreloadPost: 50,
	MixedOps:      600,
	MixedEntities: 1177,

	ProbeRecords: 250, ProbeAnswers: 300, ProbeClusters: 1000, ProbeResolves: 100,

	SetupReps: 3,
	Frozen:    true,
}

// scaled shrinks (or grows) every count by seconds ÷ runSeconds,
// keeping the shapes — entity ratios, per-wave structure, the mix — and
// flooring each count where a workload would otherwise degenerate.
func (s sizes) scaled(seconds int) sizes {
	if seconds == runSeconds {
		return s
	}
	s.Frozen = false
	f := float64(seconds) / runSeconds
	n := func(v, floor int) int {
		if v = int(float64(v) * f); v < floor {
			return floor
		}
		return v
	}
	s.SparseRecords, s.SparseEntities = n(s.SparseRecords, 400), n(s.SparseEntities, 144)
	s.DenseCampaigns = n(s.DenseCampaigns, 1)
	s.IngestRecords, s.IngestEntities = n(s.IngestRecords, 480), n(s.IngestEntities, 48)
	s.Waves = n(s.Waves, 2)
	s.LoopEntities = s.Waves * s.WavePosts * recordsPerPost / 5
	s.Preload = n(s.Preload, 200)
	s.MixedOps = n(s.MixedOps, 100)
	s.MixedEntities = (s.Preload + clients*s.MixedOps*recordsPerPost) / 9
	s.ProbeRecords, s.ProbeAnswers = n(s.ProbeRecords, 20), n(s.ProbeAnswers, 20)
	s.ProbeClusters, s.ProbeResolves = n(s.ProbeClusters, 20), n(s.ProbeResolves, 2)
	if seconds < runSeconds/2 {
		s.Restarts, s.SetupReps = 2, 1
	}
	return s
}
