package core

import (
	"context"
	"math/rand"

	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/refine"
)

// Config parameterizes a full ACD run.
type Config struct {
	// Epsilon is PC-Pivot's wasted-pair budget (Equation 4). Zero value
	// means DefaultEpsilon (0.1, the paper's choice after Section 6.2).
	Epsilon float64
	// RefineX is the divisor in the refinement budget T = N_m/x. Zero
	// value means refine.DefaultX (8, the paper's choice after
	// Appendix C).
	RefineX int
	// SkipRefinement disables the cluster refinement phase, producing
	// the "crippled" PC-Pivot-only variant the paper also evaluates.
	SkipRefinement bool
	// Seed drives the random permutation. Runs with equal seeds and
	// answers are identical.
	Seed int64
	// Obs, when set, receives the run's metrics and trace events,
	// overriding any recorder the crowd source carries. Nil leaves the
	// session's inherited recorder (if any) in place; metrics change
	// nothing about the run itself.
	Obs *obs.Recorder
	// Ctx, when set, makes the run cancellable: once the context is
	// cancelled the crowd session stops answering, the running phase
	// breaks out of its iteration loop mid-batch, and Output.Err
	// reports the cancellation. Nil means the run cannot be cancelled.
	Ctx context.Context
	// Observe, when set, is registered as the crowd session's observer
	// (crowd.Session.Observe): it sees every crowd iteration's fresh
	// pairs and scores, and a non-nil error from it aborts the run like
	// a cancelled Ctx.
	Observe func(fresh []record.Pair, scores []float64) error
}

// Output is the result of a full ACD run.
type Output struct {
	// Clusters is the final deduplication. On an interrupted run
	// (Err != nil) it is still a valid partition — whatever had been
	// clustered when the campaign stopped, with the rest as singletons —
	// but not a completed deduplication.
	Clusters *cluster.Clustering
	// Stats is the crowdsourcing accounting across both crowd phases.
	Stats crowd.Stats
	// Generation reports the cluster generation phase's internals.
	Generation PCStats
	// Err is nil for a completed run; on a cancelled campaign it is the
	// context's error.
	Err error
}

// ACD runs the complete pipeline of Section 3 on a pre-pruned candidate
// set: cluster generation with PC-Pivot followed by cluster refinement
// with PC-Refine, all answered from the given answer set. (The pruning
// phase itself is pruning.Prune; it is machine-only and shared by every
// method, mirroring the paper's experimental setup.)
func ACD(cands *pruning.Candidates, answers crowd.Source, cfg Config) Output {
	eps := cfg.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	x := cfg.RefineX
	if x == 0 {
		x = refine.DefaultX
	}
	sess := crowd.NewSession(answers)
	if cfg.Obs != nil {
		sess.SetRecorder(cfg.Obs)
	}
	if cfg.Ctx != nil {
		sess.Bind(cfg.Ctx)
	}
	sess.Observe(cfg.Observe)
	rec := sess.Recorder()
	rng := rand.New(rand.NewSource(cfg.Seed))

	doneGen := rec.StartPhase("generate")
	clusters, gen := PCPivot(cands, sess, eps, rng)
	doneGen()
	if !cfg.SkipRefinement && sess.Err() == nil {
		doneRef := rec.StartPhase("refine")
		clusters = refine.PCRefine(clusters, cands, sess, x)
		doneRef()
	} else {
		clusters.Compact()
	}
	return Output{Clusters: clusters, Stats: sess.Stats(), Generation: gen, Err: sess.Err()}
}
