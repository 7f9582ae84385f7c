package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/record"
)

// referenceSnapshot is the from-scratch snapshot builder state shipped
// with before the listing was maintained incrementally: the whole
// clustering recomputed from the forest, holes filtered out, on every
// call. It touches nothing the incremental path maintains, so it is the
// reference state.snapshot is compared against.
func referenceSnapshot(st *state, perShard []ShardStats, handoff int) *Snapshot {
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
	st.clusters.Grow(st.nextGID)
	for _, set := range st.clusters.Sets(st.nextGID) {
		live := make([]int, 0, len(set))
		for _, gid := range set {
			if st.live(gid) {
				live = append(live, gid)
			}
		}
		if len(live) > 0 {
			snap.Clusters = append(snap.Clusters, live)
		}
	}
	return snap
}

// cloneSnapshot deep-copies a snapshot.
func cloneSnapshot(s *Snapshot) *Snapshot {
	c := *s
	c.PerShard = append([]ShardStats(nil), s.PerShard...)
	c.Clusters = nil
	for _, set := range s.Clusters {
		c.Clusters = append(c.Clusters, append([]int(nil), set...))
	}
	return &c
}

// snapshotAudit checks every snapshot a state hands out against the
// reference builder, and keeps each one beside a deep copy taken when
// it was returned, to prove later publishes leave it alone.
type snapshotAudit struct {
	t      *testing.T
	handed []*Snapshot
	copies []*Snapshot
}

// check takes a snapshot of st and compares it with the reference, then
// re-reads every snapshot handed out earlier.
func (a *snapshotAudit) check(step string, st *state, handoff int) {
	a.t.Helper()
	perShard := engineStats(st)
	got := st.snapshot(perShard, handoff)
	a.compare(step, got, referenceSnapshot(st, perShard, handoff))
}

// engineStats reads every engine's occupancy; the engines must be
// quiescent.
func engineStats(st *state) []ShardStats {
	perShard := make([]ShardStats, len(st.engines))
	for i, e := range st.engines {
		perShard[i] = statsOf(e)
	}
	return perShard
}

func (a *snapshotAudit) compare(step string, got, want *Snapshot) {
	a.t.Helper()
	if !reflect.DeepEqual(got, want) {
		a.t.Fatalf("%s: snapshot differs from a from-scratch rebuild:\n got %+v\nwant %+v", step, got, want)
	}
	if len(got.Clusters) != cap(got.Clusters) {
		a.t.Fatalf("%s: Clusters has spare capacity %d beyond its %d clusters: an append would write into the shared listing",
			step, cap(got.Clusters), len(got.Clusters))
	}
	for i, old := range a.handed {
		if !reflect.DeepEqual(old, a.copies[i]) {
			a.t.Fatalf("%s: snapshot %d was mutated after it was returned:\n now %+v\n was %+v", step, i, old, a.copies[i])
		}
	}
	a.handed = append(a.handed, got)
	a.copies = append(a.copies, cloneSnapshot(got))
}

// foldModel drives a state the way a live Group does — engine half of a
// record on append, routing half on acknowledgment, resolve effects
// router-first — without the goroutines, so a seeded history decides
// the order in which shards acknowledge and which reserved ids stay
// holes. Acknowledged events are kept per journal, both since the last
// checkpoint (what recovery folds) and in full (what a follower is
// shipped).
type foldModel struct {
	t   *testing.T
	rng *rand.Rand
	cfg Config
	st  *state

	unacked [][]journal.Event // per shard: applied to the engine, not yet acknowledged
	wal     [][]journal.Event // per shard: acknowledged since the shard's checkpoint
	cps     []*journal.Checkpoint
	routerW []journal.Event
	routerC *journal.Checkpoint

	shipped map[string][]journal.Event // every acknowledged event, by journal name
}

func newFoldModel(t *testing.T, cfg Config, rng *rand.Rand) *foldModel {
	st, err := newState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &foldModel{
		t: t, rng: rng, cfg: cfg, st: st,
		unacked: make([][]journal.Event, cfg.Shards),
		wal:     make([][]journal.Event, cfg.Shards),
		cps:     make([]*journal.Checkpoint, cfg.Shards),
		shipped: make(map[string][]journal.Event),
	}
}

func (m *foldModel) must(err error) {
	m.t.Helper()
	if err != nil {
		m.t.Fatal(err)
	}
}

// logShard records an acknowledged shard event.
func (m *foldModel) logShard(sid int, ev journal.Event) {
	m.wal[sid] = append(m.wal[sid], ev)
	name := journal.ShardDirName(sid)
	m.shipped[name] = append(m.shipped[name], ev)
}

// logRouter records a router event; a routerless layout keeps none.
func (m *foldModel) logRouter(ev journal.Event) {
	if m.st.routerless() {
		return
	}
	m.routerW = append(m.routerW, ev)
	m.shipped[journal.RouterDir] = append(m.shipped[journal.RouterDir], ev)
}

// reserve routes one record: a gid is reserved and, unless the append
// "fails" and leaves the gid a hole for good, the home engine applies
// the record and the acknowledgment is left outstanding.
func (m *foldModel) reserve() string {
	sid := m.rng.Intn(m.st.n)
	gid := m.st.reserveGID(sid)
	if m.rng.Intn(7) == 0 {
		return fmt.Sprintf("failed append of gid %d", gid)
	}
	r := synthRecord(m.rng, gid)
	r.GID = gid
	ev := incremental.RecordEvent(m.st.engines[sid].Len(), r)
	m.must(m.st.engines[sid].Apply(ev))
	m.unacked[sid] = append(m.unacked[sid], ev)
	return fmt.Sprintf("reserve gid %d on shard %d", gid, sid)
}

// ack acknowledges the oldest outstanding record of a random shard, so
// across shards gids go live out of order.
func (m *foldModel) ack() string {
	var waiting []int
	for sid, q := range m.unacked {
		if len(q) > 0 {
			waiting = append(waiting, sid)
		}
	}
	if len(waiting) == 0 {
		return ""
	}
	sid := waiting[m.rng.Intn(len(waiting))]
	ev := m.unacked[sid][0]
	m.unacked[sid] = m.unacked[sid][1:]
	m.must(m.st.routeShard(sid, ev))
	m.logShard(sid, ev)
	return fmt.Sprintf("ack gid %d from shard %d", ev.Record.GID, sid)
}

func (m *foldModel) drain() {
	for m.ack() != "" {
	}
}

// liveGIDs lists the acknowledged gids.
func (m *foldModel) liveGIDs() []int {
	var out []int
	for gid := 0; gid < m.st.nextGID; gid++ {
		if m.st.live(gid) {
			out = append(out, gid)
		}
	}
	return out
}

// answer caches an answer for a random live pair: in the home engine
// when the records share a shard, at the router otherwise.
func (m *foldModel) answer() string {
	live := m.liveGIDs()
	if len(live) < 2 {
		return ""
	}
	i := m.rng.Intn(len(live) - 1)
	p := record.MakePair(record.ID(live[i]), record.ID(live[i+1+m.rng.Intn(len(live)-i-1)]))
	fc := float64(m.rng.Intn(2))
	if sid, lp, same := m.st.sameShard(p); same {
		ev := incremental.AnswerEvent(lp, fc, "")
		m.must(m.st.engines[sid].Apply(ev))
		m.logShard(sid, ev)
		return fmt.Sprintf("answer %v on shard %d", p, sid)
	}
	ev := incremental.AnswerEvent(p, fc, "")
	m.must(m.st.applyRouter(ev))
	m.logRouter(ev)
	return fmt.Sprintf("cross-shard answer %v", p)
}

// resolve installs a clustering the way Group.Resolve commits one: every
// acknowledgment drained, then a few random merges of live records on
// top of the current clustering, logged router-first and fanned out.
func (m *foldModel) resolve() string {
	m.drain()
	st := m.st
	n := st.nextGID
	merged := st.clusters.Clone()
	merged.Grow(n)
	if live := m.liveGIDs(); len(live) > 1 {
		for k := m.rng.Intn(4); k > 0; k-- {
			merged.Union(live[m.rng.Intn(len(live))], live[m.rng.Intn(len(live))])
		}
	}
	clusters := merged.Sets(n)
	ev := incremental.ResolveEvent(st.round+1, n, clusters)
	m.logRouter(ev)
	for sid, e := range st.engines {
		sev := incremental.ResolveEvent(st.round+1, e.Len(), st.restrictClusters(clusters, sid))
		m.must(e.Apply(sev))
		m.logShard(sid, sev)
	}
	m.must(st.applyRouter(ev))
	return fmt.Sprintf("resolve round %d over %d gids", st.round, n)
}

// restart is a crash and a recovery: outstanding acknowledgments are
// lost (their records were not durable, so their gids fall back into
// the unassigned space), some journals are checkpointed first, and a
// fresh state is folded from what the journals hold — shards, then the
// router, the order Group.recover uses.
func (m *foldModel) restart() string {
	checkpointed := m.rng.Intn(2) == 0
	if checkpointed {
		m.drain()
		for sid, e := range m.st.engines {
			if m.rng.Intn(2) == 0 {
				m.cps[sid], m.wal[sid] = e.Snapshot(), nil
			}
		}
		if !m.st.routerless() && m.rng.Intn(2) == 0 {
			m.routerC, m.routerW = m.st.routerCheckpoint(), nil
		}
	}
	st, err := newState(m.cfg)
	m.must(err)
	for sid := range st.engines {
		m.must(st.fold(sid, m.cps[sid], m.wal[sid]))
		m.unacked[sid] = nil
	}
	if !st.routerless() {
		m.must(st.fold(-1, m.routerC, m.routerW))
	}
	m.st = st
	return fmt.Sprintf("restart (checkpointed=%v)", checkpointed)
}

// TestSnapshotMatchesRebuild is the differential test of the
// incrementally maintained listing: over seeded histories of reserves,
// failed appends, out-of-order acknowledgments, same- and cross-shard
// answers, resolves and checkpoint+recover cycles at 1 to 4 shards,
// state.snapshot equals the from-scratch reference after every step and
// no snapshot handed out earlier ever changes. Each history's journals
// are then shipped to a Standby with the router stream ahead of the
// shard streams, so resolve effects name gids that are still holes and
// records go live inside ranges the listing already covers.
func TestSnapshotMatchesRebuild(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		for seed := int64(1); seed <= 6; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*31 + int64(shards)))
				cfg := Config{Shards: shards, Engine: incremental.Config{Seed: seed}}
				m := newFoldModel(t, cfg, rng)
				audit := &snapshotAudit{t: t}
				audit.check("empty", m.st, 0)
				for op := 0; op < 160; op++ {
					var step string
					switch roll := rng.Float64(); {
					case roll < 0.40:
						step = m.reserve()
					case roll < 0.75:
						step = m.ack()
					case roll < 0.88:
						step = m.answer()
					case roll < 0.95:
						step = m.resolve()
					default:
						step = m.restart()
					}
					if step != "" {
						audit.check(fmt.Sprintf("op %d (%s)", op, step), m.st, rng.Intn(3))
					}
				}
				m.drain()
				audit.check("drained", m.st, 0)

				if shards > 1 {
					shipAhead(t, cfg, m.shipped, rng)
				}
			})
		}
	}
}

// shipAhead replays a history's journals into a Standby, the whole
// router stream first and the shard streams interleaved at random after
// it, comparing the standby's snapshot with the reference after every
// event.
func shipAhead(t *testing.T, cfg Config, shipped map[string][]journal.Event, rng *rand.Rand) {
	t.Helper()
	sb, err := NewStandby(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audit := &snapshotAudit{t: t}
	next := make(map[string]int)
	apply := func(name string) {
		ev := shipped[name][next[name]]
		next[name]++
		ev.Seq = int64(next[name])
		if err := sb.Apply(name, ev); err != nil {
			t.Fatalf("standby: %s event %d: %v", name, ev.Seq, err)
		}
		audit.compare(fmt.Sprintf("standby after %s event %d", name, ev.Seq), sb.Snapshot(), referenceSnapshot(sb.st, engineStats(sb.st), 0))
	}
	for range shipped[journal.RouterDir] {
		apply(journal.RouterDir)
	}
	for {
		var waiting []string
		for sid := 0; sid < cfg.Shards; sid++ {
			if name := journal.ShardDirName(sid); next[name] < len(shipped[name]) {
				waiting = append(waiting, name)
			}
		}
		if len(waiting) == 0 {
			return
		}
		apply(waiting[rng.Intn(len(waiting))])
	}
}

// TestPublishedSnapshotMatchesRebuild runs the same comparison on live
// groups: after every call, what the group has published equals the
// reference built from its state under the lock — including the
// handoff figure, which the group now counts as gids go live instead of
// rescanning the queue. Multi-record Adds at several shards
// acknowledge out of gid order; checkpoints and reopen exercise the
// recovery path that requeues handoff pairs.
func TestPublishedSnapshotMatchesRebuild(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Shards: shards, Engine: incremental.Config{Seed: 3, CheckpointEvery: 11}}
			tree := journal.NewMemTree()
			g, err := Open(cfg, tree)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { g.Close() }()
			audit := &snapshotAudit{t: t}
			check := func(step string) {
				t.Helper()
				g.mu.Lock()
				defer g.mu.Unlock()
				handoff := 0
				for _, sp := range g.handoff {
					if g.st.live(int(sp.Pair.Lo)) && g.st.live(int(sp.Pair.Hi)) {
						handoff++
					}
				}
				audit.compare(step, g.snap.Load(), referenceSnapshot(g.st, g.stats, handoff))
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			var acked []int
			sawHandoff := false
			for op := 0; op < 90; op++ {
				switch roll := rng.Float64(); {
				case roll < 0.6 || len(acked) < 2:
					// A pool of four tokens: most batches hold a cross-shard
					// pair whose endpoints are both still unacknowledged.
					recs := make([]incremental.Record, 1+rng.Intn(8))
					for i := range recs {
						recs[i] = incremental.Record{Fields: map[string]string{
							"name": fmt.Sprintf("token%d token%d item%d", rng.Intn(4), rng.Intn(4), len(acked)+i),
						}}
					}
					ids, err := g.Add(recs...)
					if err != nil {
						t.Fatal(err)
					}
					acked = append(acked, ids...)
				case roll < 0.85:
					lo, hi := acked[rng.Intn(len(acked))], acked[rng.Intn(len(acked))]
					if lo == hi {
						continue
					}
					if lo > hi {
						lo, hi = hi, lo
					}
					if err := g.AddAnswer(lo, hi, float64(rng.Intn(2)), ""); err != nil {
						t.Fatal(err)
					}
				case roll < 0.92:
					if _, err := g.Resolve(context.Background()); err != nil {
						t.Fatal(err)
					}
				case roll < 0.96:
					if err := g.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := g.Close(); err != nil {
						t.Fatal(err)
					}
					if g, err = Open(cfg, tree); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("op %d", op))
				sawHandoff = sawHandoff || g.Snapshot().PendingPairs > 0 && len(g.handoff) > 0
			}
			if shards > 1 && !sawHandoff {
				t.Error("no cross-shard handoff pair arose: the live-pair counter went unexercised")
			}
		})
	}
}

// TestGroupAddAllocsFlat pins the write path's complexity where a timer
// cannot: the allocations of a one-record Add on a volatile 1-shard
// group are the same, give or take a few, at 500 resident records and
// at 4 000. Rebuilding the published clustering per acknowledgment, as
// the group used to, allocates per resident record and fails this by
// three orders of magnitude. The records share two tokens with every
// other record and pair with none, so the index touches the whole
// resident set on every Add and the engine's pending list stays empty.
func TestGroupAddAllocsFlat(t *testing.T) {
	allocsAt := func(resident int) float64 {
		const runs = 40
		recs := make([]incremental.Record, resident+runs+1) // AllocsPerRun warms up with one extra call
		for i := range recs {
			recs[i] = incremental.Record{Fields: map[string]string{
				"name": fmt.Sprintf("the of u%da u%db u%dc", i, i, i),
			}}
		}
		g, err := New(Config{Shards: 1, Engine: incremental.Config{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if _, err := g.Add(recs[:resident]...); err != nil {
			t.Fatal(err)
		}
		next := resident
		return testing.AllocsPerRun(runs, func() {
			if _, err := g.Add(recs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := allocsAt(500), allocsAt(4000)
	t.Logf("allocations per one-record Add: %.0f at 500 resident records, %.0f at 4000", small, large)
	if large > small+4 || small > large+4 {
		t.Errorf("a one-record Add allocates %.0f times at 4000 resident records and %.0f at 500: the write path scales with the dataset", large, small)
	}
}
