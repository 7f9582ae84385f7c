package shard

import (
	"fmt"

	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/record"
)

// recover rebuilds the group from a sharded journal layout by opening
// each journal's log and folding what it held into the state — the same
// fold the live write path and a Standby run. Then it recomputes what
// is derived rather than journaled (the probe index and handoff queue
// are pure functions of the record stream) and repairs shards that
// crashed between the router's resolve commit and their own.
func (g *Group) recover(layout *journal.Layout) error {
	st, cfg := g.st, g.cfg.Engine
	st.legacy = layout.Legacy
	for i, s := range g.shards {
		lg, rec, err := openLog(layout.ShardFS[i], journal.Options{RotateBytes: cfg.RotateBytes, Obs: cfg.Obs}, cfg.Commit, cfg, s.eng.Snapshot)
		if err != nil {
			return fmt.Errorf("shard: recovering shard %d: %w", i, err)
		}
		s.log = lg
		if err := st.fold(i, rec.Checkpoint, rec.Events); err != nil {
			return fmt.Errorf("shard: recovering shard %d: %w", i, err)
		}
	}

	// The id space covers every stored gid and everything the resolve
	// history claims to have covered; ids in neither are permanent
	// holes (records that were routed but whose WAL append never
	// became durable — they were never acknowledged). A clustering
	// that names an id beyond both does not belong to these journals.
	stored := st.nextGID
	if !st.routerless() {
		lg, rec, err := openLog(layout.RouterFS, journal.Options{}, journal.GroupPolicy{}, cfg, st.routerCheckpoint)
		if err != nil {
			return fmt.Errorf("shard: recovering router journal: %w", err)
		}
		g.router = lg
		if err := st.fold(-1, rec.Checkpoint, rec.Events); err != nil {
			return fmt.Errorf("shard: recovering router journal: %w", err)
		}
	}
	if universe := max(stored, st.resolvedUpTo); st.nextGID > universe {
		return fmt.Errorf("shard: router clusters reference gid %d outside universe [0,%d)", st.nextGID-1, universe)
	}

	if g.probe != nil {
		g.rebuildProbe()
	}

	// Repair shards that lost the fan-out of the last resolve: the
	// router's record is authoritative, so re-commit its restriction
	// to the lagging shard's journal. A shard ahead of the router is
	// impossible under the commit order (router first) — it means the
	// journals do not belong together.
	var global [][]int
	for _, s := range g.shards {
		switch {
		case s.eng.Round() > st.round:
			return fmt.Errorf("shard: shard %d at round %d is ahead of the router (round %d)", s.id, s.eng.Round(), st.round)
		case s.eng.Round() < st.round:
			if global == nil {
				global = st.clusters.Sets(st.nextGID)
			}
			if err := s.commitSync(incremental.ResolveEvent(st.round, s.eng.Len(), st.restrictClusters(global, s.id))); err != nil {
				return fmt.Errorf("shard: repairing shard %d to round %d: %w", s.id, st.round, err)
			}
		}
	}
	return nil
}

// rebuildProbe recomputes the probe index and handoff queue by
// replaying the record stream in gid order; holes contribute an empty
// text (no tokens, no pairs), which keeps the index ids aligned with
// gids. Liveness is final here — a hole in a recovered journal stays
// one — so only live pairs are queued and none is awaited.
func (g *Group) rebuildProbe() {
	st := g.st
	for gid := 0; gid < st.nextGID; gid++ {
		text := ""
		if st.live(gid) {
			data := st.engines[st.home[gid]].Record(st.local[gid])
			text = record.New(0, data.Fields).Text()
		}
		for _, sp := range g.probe.Add(text) {
			lo, hi := int(sp.Pair.Lo), int(sp.Pair.Hi)
			if st.live(lo) && st.live(hi) && st.home[lo] != st.home[hi] && hi >= st.resolvedUpTo {
				g.handoff = append(g.handoff, sp)
			}
		}
	}
	g.handoffLive = len(g.handoff)
}
