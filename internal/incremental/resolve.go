package incremental

import (
	"context"
	"math/rand"
	"sort"

	"acd/internal/blocking"
	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/refine"
	"acd/internal/unionfind"
)

// ResolveStats reports what one resolve pass did and — more to the
// point — what it avoided doing.
type ResolveStats struct {
	// Round is the pass number, from 1.
	Round int
	// Records is the universe size the pass covered.
	Records int
	// Pending is how many candidate pairs had accumulated since the
	// previous pass.
	Pending int
	// InferredPositive counts pairs answered positively by transitive
	// closure (the primed star edges) — zero crowd questions.
	InferredPositive int
	// InferredNegative counts previously-crowdsourced pairs excluded
	// because their endpoints sit in different resolved clusters.
	InferredNegative int
	// ClosureEdges is the number of star edges injected.
	ClosureEdges int
	// Residual is the count of pending pairs with no cached answer —
	// the only pairs that could cost crowd questions this pass.
	Residual int
	// QuestionsAsked is the number of fresh crowd questions the pass
	// actually paid for (== the session's oracle invocations).
	QuestionsAsked int
	// Iterations is the number of crowd iterations (batches).
	Iterations int
	// Clusters is the cluster count after the pass.
	Clusters int
}

// AnswerSink receives a crowd iteration's fresh answers — pairs and
// scores in asking order, one provenance label — the instant a resolve
// pass obtains them, before the algorithms act on them: the WAL seam,
// and the unit a durable owner commits. A bare engine's sink applies the
// answer events; the shard router's sink logs each where its pair is
// homed (the owning shard's journal, or the router's for cross-shard
// pairs), commits every touched journal once, and applies them. Sinks
// must be idempotent: priming guarantees the session never re-asks a
// cached pair, but a sink may still see a pair it already knows.
type AnswerSink func(fresh []record.Pair, fcs []float64, source string) error

// ResolveState is the complete input of one resolve pass over a record
// universe, with no reference back to any particular engine.
// Engine.Resolve fills it from its own state; the shard router fills it
// from the union of its shards plus the cross-shard handoff queue. Both
// callers then share RunResolve verbatim, which is what makes the
// sharded system provably ask the same questions as the single engine.
type ResolveState struct {
	// N is the number of records in the universe (dense ids 0..N-1).
	N int
	// Round is this pass's number, from 1 (completed passes + 1).
	Round int
	// ResolvedUpTo is the count of records covered by the previous pass.
	ResolvedUpTo int
	// Clusters is the current clustering over 0..ResolvedUpTo-1 (and any
	// still-singleton newer records). RunResolve reads it and returns
	// the merged result; it never mutates the forest.
	Clusters *unionfind.Growable
	// Pending is the candidate pairs accumulated since the previous
	// pass, with their machine scores. Order is irrelevant: the pass
	// consumes them as a score map.
	Pending []blocking.ScoredPair
	// Answered lists every pair with a cached answer, in any order
	// (RunResolve canonicalizes). Values are read back through Answer.
	Answered []record.Pair
	// Answer looks up a cached answer.
	Answer func(p record.Pair) (fc float64, ok bool)
	// Sink receives each iteration's fresh answers as they are produced.
	Sink AnswerSink
	// Ctx cancels the pass mid-crowd-iteration; nil never cancels.
	Ctx context.Context
}

// RunResolve computes one resolve pass: candidate pairs that transitive
// closure over resolved clusters can answer are inferred for free, and
// only the residual flows through a scoped PC-Pivot + PC-Refine pass
// seeded with the existing clustering. It returns the merged clustering
// in canonical form and the pass accounting; committing the effect
// (logging and applying a ResolveEvent) is the caller's job, which is
// how a bare engine and the shard router share this code.
//
// Cached answers are primed in canonical pair order (closure stars
// first), so the pass depends only on the *set* of cached answers — not
// on the order they arrived in. That independence is load-bearing: the
// shard router cannot reconstruct a global arrival order from per-shard
// journals, and with canonical priming it does not need to.
func RunResolve(cfg Config, st ResolveState) (clusters [][]int, stats ResolveStats, err error) {
	stats = ResolveStats{Round: st.Round, Records: st.N, Pending: len(st.Pending)}

	// Scoped candidate set: pending pairs at their machine scores…
	scores := make(cluster.Scores, len(st.Pending))
	for _, sp := range st.Pending {
		scores[sp.Pair] = sp.Score
		if _, known := st.Answer(sp.Pair); !known {
			stats.Residual++
		}
	}

	// …plus closure stars re-asserting each resolved cluster a pending
	// pair touches. Star edges are genuine candidates (score 1.0) primed
	// positive, so the algorithms see the cluster as already merged at
	// zero cost, and every pair they can ask stays inside the candidate
	// set (sources may reject non-candidates).
	incident := make(map[int]bool)
	for _, sp := range st.Pending {
		if lo := int(sp.Pair.Lo); lo < st.ResolvedUpTo {
			incident[st.Clusters.Find(lo)] = true
		}
	}
	var closure []record.Pair
	for _, set := range st.Clusters.Sets(st.ResolvedUpTo) {
		if len(set) < 2 || !incident[set[0]] {
			continue
		}
		for _, m := range set[1:] {
			p := record.MakePair(record.ID(set[0]), record.ID(m))
			scores[p] = 1.0
			closure = append(closure, p)
		}
	}
	stats.ClosureEdges = len(closure)
	stats.InferredPositive = len(closure)

	// Previously-answered pairs whose endpoints now sit in different
	// resolved clusters are the negative half of the inference: they are
	// simply not candidates this pass, so they cannot be re-asked.
	// Canonical pair order makes the walk (and the priming below)
	// independent of answer arrival order.
	answered := append([]record.Pair(nil), st.Answered...)
	sort.Slice(answered, func(i, j int) bool {
		if answered[i].Lo != answered[j].Lo {
			return answered[i].Lo < answered[j].Lo
		}
		return answered[i].Hi < answered[j].Hi
	})
	for _, p := range answered {
		lo, hi := int(p.Lo), int(p.Hi)
		if _, inScope := scores[p]; !inScope && hi < st.ResolvedUpTo && !st.Clusters.Same(lo, hi) {
			stats.InferredNegative++
		}
	}

	// tau = -1 keeps every scoped pair: the blocking indexes already
	// enforced the engine's threshold, and closure edges must never be
	// pruned.
	cands := pruning.FromScores(st.N, scores, -1)

	sess := newResolveSession(cfg, scores, st.Sink)
	if st.Ctx != nil {
		sess.Bind(st.Ctx)
	}
	// Prime closure edges first (their inferred 1.0 outranks any cached
	// answer), then every cached answer that is a scoped candidate, in
	// canonical pair order. Priming never touches pairs outside the
	// candidate set: the refinement budget counts every session-known
	// pair as a candidate.
	for _, p := range closure {
		sess.Prime(p, 1.0)
	}
	for _, p := range answered {
		if cands.Contains(p) {
			fc, _ := st.Answer(p)
			sess.Prime(p, fc)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + int64(st.Round-1)))
	c, _ := core.PCPivotPerm(cands, sess, cfg.effectiveEpsilon(), core.NewPermutation(st.N, rng))
	if sess.Err() == nil {
		c = refine.PCRefine(c, cands, sess, cfg.RefineX)
	}
	if err := sess.Err(); err != nil {
		return nil, stats, err
	}
	stats.QuestionsAsked = sess.Stats().Pairs
	stats.Iterations = sess.Stats().Iterations

	// Merge the scoped result into the prior clustering monotonically:
	// resolved merges are never undone (the journal records effects, and
	// effects only accumulate).
	merged := st.Clusters.Clone()
	merged.Grow(st.N)
	for _, set := range c.Sets() {
		for _, m := range set[1:] {
			merged.Union(int(set[0]), int(m))
		}
	}
	clusters = merged.Sets(st.N)
	stats.Clusters = len(clusters)

	cfg.Obs.Count(MetricResolves, 1)
	cfg.Obs.Count(MetricInferredPositive, int64(stats.InferredPositive))
	cfg.Obs.Count(MetricInferredNegative, int64(stats.InferredNegative))
	cfg.Obs.Count(MetricClosureEdges, int64(stats.ClosureEdges))
	cfg.Obs.Count(MetricResidualPairs, int64(stats.Residual))
	if cfg.Obs.Tracing() {
		cfg.Obs.Trace("incremental.resolve", map[string]any{
			"round": stats.Round, "records": stats.Records,
			"pending": stats.Pending, "residual": stats.Residual,
			"closure": stats.ClosureEdges, "questions": stats.QuestionsAsked,
			"clusters": stats.Clusters,
		})
	}
	return clusters, stats, nil
}

// Resolve folds all pending records into the clustering: one RunResolve
// pass whose fresh answers and final effect are applied as events.
//
// ctx cancels the pass mid-crowd-iteration: the engine state is left
// exactly as before the call except that answers already received
// remain cached (they were paid for), and the error is returned.
func (e *Engine) Resolve(ctx context.Context) (ResolveStats, error) {
	n := len(e.records)
	clusters, stats, err := RunResolve(e.cfg, ResolveState{
		N:            n,
		Round:        e.round + 1,
		ResolvedUpTo: e.resolvedUpTo,
		Clusters:     e.uf,
		Pending:      e.pending,
		Answered:     e.answerOrder,
		Answer: func(p record.Pair) (float64, bool) {
			fc, ok := e.answers[p]
			return fc, ok
		},
		Sink: func(fresh []record.Pair, fcs []float64, source string) error {
			for i, p := range fresh {
				if err := e.Apply(AnswerEvent(p, fcs[i], source)); err != nil {
					return err
				}
			}
			return nil
		},
		Ctx: ctx,
	})
	if err != nil {
		return stats, err
	}
	return stats, e.Apply(ResolveEvent(stats.Round, n, clusters))
}
