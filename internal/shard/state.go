package shard

import (
	"fmt"

	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/record"
	"acd/internal/unionfind"
)

// state is everything a group's journals determine: the shard engines,
// the global id maps, and the router's cross-shard answers and global
// clustering. It changes only by folding journal events — applyShard,
// applyRouter, applyCheckpoint — and those same folds are what a live
// Group calls after its log append, what recovery runs over each
// journal's contents, and what a Standby runs over shipped events. Live
// state, leader recovery and follower replay therefore cannot drift:
// they are one piece of code.
//
// state has no lock and does no I/O; its owner serializes access (a
// Group lets each shard's queue goroutine Apply to its own engine and
// guards the rest with its mutex).
type state struct {
	n int
	// legacy marks a pre-sharding journal adopted in place: its records
	// carry no gids, so a record's local id is its global id.
	legacy bool

	engines []*incremental.Engine

	// Global id space. local is -1 for an id with no record behind it
	// — routed but not yet durable on a live leader, not yet shipped on
	// a follower, or a permanent hole (the record's append failed or
	// was lost in a crash). Global ids are never reassigned once
	// potentially durable.
	nextGID int
	home    []int   // gid -> shard
	local   []int   // gid -> local id within home shard, -1 = no record
	gids    [][]int // shard -> local id -> gid

	// Cross-shard answers live at the router (neither shard holds both
	// records); same-shard answers live in the home shard's engine.
	xans map[record.Pair]float64
	xord []record.Pair
	xsrc map[record.Pair]string

	// The global resolve history, gid space.
	clusters     *unionfind.Growable
	round        int
	resolvedUpTo int

	// listing is what snapshots publish as Clusters: clusters in its
	// canonical order, restricted to live gids. It is kept current per
	// record instead of recomputed per snapshot: a gid that goes live at
	// or above listedTo is a singleton sorting after every listed
	// cluster, so it is appended — into spare capacity no published
	// snapshot can see, or into a fresh array. Anything else (a resolve
	// or checkpoint installing a clustering, a gid going live below
	// listedTo because acks of different shards reordered or a
	// follower's router stream ran ahead) sets relist, and the next
	// snapshot rebuilds the listing into fresh arrays.
	listing  [][]int
	listedTo int // every gid at or above it is a singleton of clusters and absent from listing
	relist   bool
}

func newState(cfg Config) (*state, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > journal.MaxShards {
		return nil, fmt.Errorf("shard: shard count %d outside [1,%d]", cfg.Shards, journal.MaxShards)
	}
	st := &state{
		n:        cfg.Shards,
		engines:  make([]*incremental.Engine, cfg.Shards),
		gids:     make([][]int, cfg.Shards),
		xans:     make(map[record.Pair]float64),
		xsrc:     make(map[record.Pair]string),
		clusters: &unionfind.Growable{},
	}
	for i := range st.engines {
		st.engines[i] = incremental.New(cfg.Engine)
	}
	return st, nil
}

// routerless reports a 1-shard layout, which keeps no router journal:
// no answer can cross shards, and shard 0's resolve events are the
// global ones.
func (st *state) routerless() bool { return st.n == 1 }

// journalIndex resolves a journal name to its shard index, -1 for the
// router.
func (st *state) journalIndex(name string) (int, error) {
	if name == journal.RouterDir {
		return -1, nil
	}
	for i := 0; i < st.n; i++ {
		if name == journal.ShardDirName(i) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("shard: unknown journal %q", name)
}

// fold applies one journal's contents — the newest checkpoint (nil for
// none) and the events after it — to journal i (-1 is the router's).
func (st *state) fold(i int, cp *journal.Checkpoint, events []journal.Event) error {
	if cp != nil {
		if err := st.applyCheckpoint(i, cp); err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := st.apply(i, ev); err != nil {
			return err
		}
	}
	return nil
}

// apply folds one event of journal i (-1 is the router's).
func (st *state) apply(i int, ev journal.Event) error {
	if i < 0 {
		return st.applyRouter(ev)
	}
	return st.applyShard(i, ev)
}

// applyShard folds one event of shard i's journal: the engine half,
// then the routing half.
func (st *state) applyShard(i int, ev journal.Event) error {
	if err := st.engines[i].Apply(ev); err != nil {
		return err
	}
	return st.routeShard(i, ev)
}

// routeShard folds the routing half of a shard-journal event the engine
// has already applied: a record claims its global id. A live group
// calls it apart from the engine half — the engine applies on append,
// the id goes live only once the append is durable.
func (st *state) routeShard(i int, ev journal.Event) error {
	switch {
	case ev.Record != nil:
		return st.registerGID(i, st.gidOf(*ev.Record), ev.Record.ID)
	case ev.Resolve != nil && st.routerless():
		return st.liftGlobal(ev.Resolve.Round, ev.Resolve.ResolvedUpTo, ev.Resolve.Clusters)
	}
	return nil
}

// applyRouter folds one event of the router journal: a cross-shard
// answer (keep-first) or a global resolve effect.
func (st *state) applyRouter(ev journal.Event) error {
	switch ev.Type {
	case journal.EventAnswer:
		if ev.Answer == nil {
			return fmt.Errorf("shard: router event %d: answer without payload", ev.Seq)
		}
		st.cacheCrossAnswer(*ev.Answer)
	case journal.EventResolve:
		if ev.Resolve == nil {
			return fmt.Errorf("shard: router event %d: resolve without payload", ev.Seq)
		}
		return st.setGlobal(ev.Resolve.Round, ev.Resolve.ResolvedUpTo, ev.Resolve.Clusters)
	default:
		return fmt.Errorf("shard: router event %d: unexpected type %q", ev.Seq, ev.Type)
	}
	return nil
}

// applyCheckpoint installs journal i's checkpoint (-1 is the router's)
// into still-empty state: checkpoints replace history, they do not
// merge into it.
func (st *state) applyCheckpoint(i int, cp *journal.Checkpoint) error {
	if i < 0 {
		if len(cp.Records) != 0 {
			return fmt.Errorf("shard: router checkpoint holds %d records; the router owns none", len(cp.Records))
		}
		for _, a := range cp.Answers {
			st.cacheCrossAnswer(a)
		}
		return st.setGlobal(cp.Round, cp.ResolvedUpTo, cp.Clusters)
	}
	if err := st.engines[i].ApplyCheckpoint(cp); err != nil {
		return err
	}
	for lid, data := range cp.Records {
		if err := st.registerGID(i, st.gidOf(data), lid); err != nil {
			return err
		}
	}
	if st.routerless() {
		return st.liftGlobal(cp.Round, cp.ResolvedUpTo, cp.Clusters)
	}
	return nil
}

func (st *state) cacheCrossAnswer(a journal.AnswerData) {
	p := record.MakePair(record.ID(a.Lo), record.ID(a.Hi))
	if _, known := st.xans[p]; known {
		return
	}
	st.xans[p] = a.FC
	st.xord = append(st.xord, p)
	if a.Source != "" {
		st.xsrc[p] = a.Source
	}
}

// setGlobal installs a global resolve effect. The clustering may name
// ids no record has claimed yet — a follower's router stream can run
// ahead of its shard streams — so the id space grows to cover them, as
// holes until the records arrive.
func (st *state) setGlobal(round, resolvedUpTo int, clusters [][]int) error {
	top := resolvedUpTo
	for _, set := range clusters {
		for _, gid := range set {
			if gid < 0 {
				return fmt.Errorf("shard: global clusters reference gid %d", gid)
			}
			if gid >= top {
				top = gid + 1
			}
		}
	}
	st.growGIDs(top)
	st.clusters = forestOf(clusters, st.nextGID)
	st.relist = true
	st.round = round
	st.resolvedUpTo = resolvedUpTo
	return nil
}

// liftGlobal installs shard 0's resolve effect, in its local ids, as
// the global one — the routerless layout's stand-in for a router
// record.
func (st *state) liftGlobal(round, resolvedUpTo int, clusters [][]int) error {
	upTo := st.nextGID
	if resolvedUpTo < len(st.gids[0]) {
		upTo = st.gids[0][resolvedUpTo]
	}
	return st.setGlobal(round, upTo, st.liftClusters(clusters, 0))
}

// routerCheckpoint captures the router journal's compacted state: the
// cross-shard answer cache and the latest global clustering.
func (st *state) routerCheckpoint() *journal.Checkpoint {
	answers := make([]journal.AnswerData, 0, len(st.xord))
	for _, p := range st.xord {
		answers = append(answers, journal.AnswerData{
			Lo: int(p.Lo), Hi: int(p.Hi), FC: st.xans[p], Source: st.xsrc[p],
		})
	}
	st.clusters.Grow(st.nextGID)
	return &journal.Checkpoint{
		Round:        st.round,
		ResolvedUpTo: st.resolvedUpTo,
		Answers:      answers,
		Clusters:     st.clusters.Sets(st.nextGID),
	}
}

// gidOf extracts a record's global id.
func (st *state) gidOf(data journal.RecordData) int {
	if st.legacy {
		return data.ID
	}
	return data.GID
}

// reserveGID assigns the next global id to a record routed to shard
// sid. The id is a hole until registerGID claims it.
func (st *state) reserveGID(sid int) int {
	gid := st.nextGID
	st.growGIDs(gid + 1)
	st.home[gid] = sid
	return gid
}

// growGIDs extends the id space to n ids, new ones as holes.
func (st *state) growGIDs(n int) {
	for st.nextGID < n {
		st.home = append(st.home, 0)
		st.local = append(st.local, -1)
		st.nextGID++
	}
}

// registerGID claims a global id for shard i's record lid. The stored
// assignment is authoritative — it must survive even if the routing
// hash ever changes — and within a shard gids must ascend with local
// ids, because arrival order is what keeps the two orders aligned.
func (st *state) registerGID(i, gid, lid int) error {
	if lid != len(st.gids[i]) {
		return fmt.Errorf("shard: shard %d record %d arrived after %d records", i, lid, len(st.gids[i]))
	}
	if n := len(st.gids[i]); n > 0 && st.gids[i][n-1] >= gid {
		return fmt.Errorf("shard: shard %d record %d has gid %d, not above predecessor %d", i, lid, gid, st.gids[i][n-1])
	}
	st.growGIDs(gid + 1)
	if st.local[gid] != -1 {
		return fmt.Errorf("shard: gid %d claimed by shard %d record %d and shard %d record %d", gid, st.home[gid], st.local[gid], i, lid)
	}
	st.home[gid] = i
	st.local[gid] = lid
	st.gids[i] = append(st.gids[i], gid)
	if gid < st.listedTo {
		st.relist = true
	} else if !st.relist {
		st.listing = append(st.listing, []int{gid})
		st.listedTo = gid + 1
	}
	return nil
}

// live reports whether a global id has a durably applied record.
func (st *state) live(gid int) bool { return st.local[gid] >= 0 }

// sameShard translates a global pair to its home shard's local ids; ok
// is false when the records live on different shards or either is not
// live.
func (st *state) sameShard(p record.Pair) (sid int, lp record.Pair, ok bool) {
	lo, hi := int(p.Lo), int(p.Hi)
	if !st.live(lo) || !st.live(hi) || st.home[lo] != st.home[hi] {
		return 0, record.Pair{}, false
	}
	return st.home[lo], record.MakePair(record.ID(st.local[lo]), record.ID(st.local[hi])), true
}

// globalPair translates a shard-local pair to global ids. Global ids
// are assigned in arrival order, so within one shard the local order
// and the gid order agree and Lo/Hi survive translation.
func (st *state) globalPair(sid int, p record.Pair) record.Pair {
	return record.MakePair(record.ID(st.gids[sid][int(p.Lo)]), record.ID(st.gids[sid][int(p.Hi)]))
}

// lookupAnswer finds a cached answer for a global pair: the router's
// cross-shard cache, or the home shard's when both ends live together.
// The engines must be quiescent.
func (st *state) lookupAnswer(p record.Pair) (float64, bool) {
	if fc, ok := st.xans[p]; ok {
		return fc, true
	}
	sid, lp, ok := st.sameShard(p)
	if !ok {
		return 0, false
	}
	return st.engines[sid].Answer(int(lp.Lo), int(lp.Hi))
}

// liftClusters translates one shard's local-id clustering into global
// ids — the inverse of restrictClusters. Gid order preserves local
// order within a shard, so canonical form survives the lift.
func (st *state) liftClusters(clusters [][]int, sid int) [][]int {
	out := make([][]int, len(clusters))
	for i, set := range clusters {
		lifted := make([]int, len(set))
		for j, l := range set {
			lifted[j] = st.gids[sid][l]
		}
		out[i] = lifted
	}
	return out
}

// restrictClusters projects a global clustering onto one shard's local
// id space, dropping other shards' members and hole gids.
func (st *state) restrictClusters(clusters [][]int, sid int) [][]int {
	var out [][]int
	if st.routerless() {
		// Shard 0's resolve events stand in for the router's, which
		// always carry a listing (Sets never returns nil): a resolve
		// over no records journals [] here, as it does at the router,
		// not null.
		out = [][]int{}
	}
	for _, set := range clusters {
		var loc []int
		for _, gid := range set {
			if st.home[gid] == sid && st.live(gid) {
				loc = append(loc, st.local[gid])
			}
		}
		if len(loc) > 0 {
			out = append(out, loc)
		}
	}
	return out
}

// forestOf builds a union-find over n elements from a cluster listing.
func forestOf(clusters [][]int, n int) *unionfind.Growable {
	uf := &unionfind.Growable{}
	uf.Grow(n)
	for _, set := range clusters {
		for _, m := range set[1:] {
			uf.Union(set[0], m)
		}
	}
	return uf
}

// snapshot returns the immutable published view of the state. perShard
// is each engine's occupancy (a live group passes mirrors, because its
// engines may be mid-append) and handoff the count of live cross-shard
// candidate pairs awaiting a resolve, which only a live group tracks.
// Clusters is a capacity-clamped header over the listing: elements a
// snapshot can reach are never written again, so the cost here is the
// shard count unless the listing is stale.
func (st *state) snapshot(perShard []ShardStats, handoff int) *Snapshot {
	snap := &Snapshot{
		Shards:       st.n,
		Round:        st.round,
		ResolvedUpTo: st.resolvedUpTo,
		PendingPairs: handoff,
		Answers:      len(st.xord),
		PerShard:     append([]ShardStats(nil), perShard...),
	}
	for _, ps := range snap.PerShard {
		snap.Records += ps.Records
		snap.PendingPairs += ps.PendingPairs
		snap.Answers += ps.Answers
	}
	if st.relist {
		st.rebuildListing()
	}
	if n := len(st.listing); n > 0 {
		snap.Clusters = st.listing[:n:n]
	}
	return snap
}

// rebuildListing recomputes the listing from the forest and the id
// maps: every cluster in canonical order, hole members dropped, empty
// clusters dropped. Sets hands back arrays nobody else holds, so the
// filter runs in place. listedTo lands just past the last gid that is
// listed or clustered with another, not at nextGID: reserved ids still
// awaiting their acknowledgment stay appendable.
func (st *state) rebuildListing() {
	st.clusters.Grow(st.nextGID)
	sets := st.clusters.Sets(st.nextGID)
	listing, listedTo := sets[:0], 0
	for _, set := range sets {
		last := set[len(set)-1]
		live := set[:0]
		for _, gid := range set {
			if st.live(gid) {
				live = append(live, gid)
			}
		}
		if len(live) > 0 {
			listing = append(listing, live)
		}
		if (len(live) > 0 || len(set) > 1) && last >= listedTo {
			listedTo = last + 1
		}
	}
	st.listing, st.listedTo, st.relist = listing, listedTo, false
}

// statsOf reads one engine's occupancy; the caller must own the engine.
func statsOf(e *incremental.Engine) ShardStats {
	return ShardStats{Records: e.Len(), PendingPairs: e.PendingPairs(), Answers: e.AnswerCount()}
}
