package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"acd/internal/blocking"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/record"
)

// Config configures a Group.
type Config struct {
	// Shards is the shard count; 0 means 1. Opening an existing journal
	// directory pins the count — reopening with a different one fails.
	Shards int
	// Engine configures every shard engine and the global resolve pass
	// (threshold, epsilon, seed, crowd source, observability). One
	// config everywhere is what makes the sharded system equivalent to
	// a single engine with the same config.
	Engine incremental.Config
}

// Group is a sharded online dedup engine: Add routes records to their
// home shards, AddAnswer routes crowd answers, Resolve runs a global
// resolve pass, and Snapshot serves the current clustering without
// taking any write lock. All ids exposed by Group are global ids,
// dense across shards in arrival order.
//
// Every mutation is one journal event that is appended to a log (the
// home shard's, or the router's) and then folded into st — the same
// fold recovery and a follower's Standby run.
//
// Concurrency: mu guards all routing state and the router log; each
// shard's engine and log are touched only by its own queue goroutine —
// or by Resolve/Checkpoint/Close after draining every queue. Reads go
// through the atomic snapshot pointer and never block.
type Group struct {
	cfg Config

	mu        sync.Mutex
	intakeOK  *sync.Cond // broadcast when resolving clears
	resolving bool       // a resolve/checkpoint barrier is active
	closed    bool
	failed    error // sticky: a half-committed resolve fan-out

	st     *state
	shards []*shardState
	router *log            // cross answers + global resolve effects; nil when the layout keeps no router journal or the group is volatile
	layout *journal.Layout // the opened journal layout; nil when volatile

	// stats mirrors each engine's occupancy so snapshots never read an
	// engine another goroutine may be mutating; each shard's entry is
	// written only by that engine's owner (its queue goroutine, or a
	// barrier holder).
	stats []ShardStats

	// probe is the global blocking index over every record in gid
	// order; the cross-shard pairs it emits accumulate in handoff
	// until the next resolve. Both are pure functions of the record
	// stream, so they are never journaled: recovery recomputes them.
	// nil for single-shard groups (no pair can cross).
	probe   *blocking.IncrementalIndex
	handoff []blocking.ScoredPair // cross-shard pending pairs, gid space
	// handoffLive counts the handoff pairs with both endpoints live —
	// the ones snapshots report and a resolve gathers. A pair joins the
	// count when the later of its endpoints is acknowledged: awaited
	// lists, for each gid not yet live, the partners of its handoff
	// pairs, so publishing never rescans the queue.
	handoffLive int
	awaited     map[int][]int

	gauges []shardGauges // per-shard gauge names, built once

	snap atomic.Pointer[Snapshot]
}

type shardState struct {
	id  int
	eng *incremental.Engine
	log *log     // nil when volatile
	q   *opQueue // single-owner op queue: the only goroutine touching eng and log
	ack *opQueue // FIFO acknowledgment dispatcher for pipelined commits
}

// commit is the write sequence of a queued shard mutation: log the
// event, fold it into the engine, run the checkpoint cadence. The
// engine applies before the event is durable (local id assignment is
// order-dependent, so apply cannot wait for the fsync); the returned
// channel resolves once it is, and only then may the mutation be
// acknowledged.
func (s *shardState) commit(ev journal.Event) (<-chan error, error) {
	wait, err := s.log.AppendAsync(ev)
	if err != nil {
		return nil, err
	}
	return wait, s.applyLogged(ev)
}

// commitSync is commit for a barrier holder, whose event must be
// durable before anything depends on it (WAL discipline).
func (s *shardState) commitSync(ev journal.Event) error {
	if err := s.log.Append(ev); err != nil {
		return err
	}
	return s.applyLogged(ev)
}

// applyLogged folds an event the log already holds into the engine and
// runs the checkpoint cadence.
func (s *shardState) applyLogged(ev journal.Event) error {
	if err := s.eng.Apply(ev); err != nil {
		return err
	}
	s.log.autoCheckpoint()
	return nil
}

// New returns a volatile group: shard state lives only in memory.
func New(cfg Config) (*Group, error) {
	g, err := newGroup(cfg, nil)
	if err != nil {
		return nil, err
	}
	g.start()
	return g, nil
}

// Open recovers a group from the sharded journal layout in tree (fresh
// directories start empty) and attaches the per-shard and router
// journals so every state transition is durable. Close the group to
// release them.
func Open(cfg Config, tree journal.Tree) (*Group, error) {
	layout, err := journal.OpenLayout(tree, cfg.Shards)
	if err != nil {
		return nil, err
	}
	cfg.Shards = layout.Shards
	g, err := newGroup(cfg, layout)
	if err != nil {
		return nil, err
	}
	g.start()
	return g, nil
}

// newGroup builds the group, recovering from layout when non-nil. The
// queue goroutines are not yet running.
func newGroup(cfg Config, layout *journal.Layout) (*Group, error) {
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	g := &Group{cfg: cfg, st: st, layout: layout}
	g.intakeOK = sync.NewCond(&g.mu)
	if st.n > 1 {
		g.probe = blocking.NewIncrementalIndex(cfg.Engine.EffectiveTau())
		g.awaited = make(map[int][]int)
	}
	g.shards = make([]*shardState, st.n)
	g.stats = make([]ShardStats, st.n)
	g.gauges = make([]shardGauges, st.n)
	for i := range g.shards {
		g.shards[i] = &shardState{id: i, eng: st.engines[i], q: newOpQueue(), ack: newOpQueue()}
		g.gauges[i] = shardGauges{
			records: ShardGauge(GaugeShardRecords, i),
			pending: ShardGauge(GaugeShardPending, i),
			answers: ShardGauge(GaugeShardAnswers, i),
		}
	}
	if layout != nil {
		if err := g.recover(layout); err != nil {
			for _, s := range g.shards {
				s.log.Close()
			}
			g.router.Close()
			return nil, err
		}
	}
	g.refreshStatsLocked()
	g.publishSnapshotLocked()
	return g, nil
}

// refreshStatsLocked resyncs every stats mirror from its engine. Legal
// only while all engines are quiescent (construction or a barrier).
func (g *Group) refreshStatsLocked() {
	for i, s := range g.shards {
		g.stats[i] = statsOf(s.eng)
	}
}

// start launches the shard queue and acknowledgment goroutines.
func (g *Group) start() {
	for _, s := range g.shards {
		go s.q.run()
		go s.ack.run()
	}
}

// Shards returns the shard count.
func (g *Group) Shards() int { return g.st.n }

// usableLocked rejects operations on a closed or failed group.
func (g *Group) usableLocked() error {
	if g.closed {
		return fmt.Errorf("shard: group closed")
	}
	if g.failed != nil {
		return fmt.Errorf("shard: group failed (restart to recover): %w", g.failed)
	}
	return nil
}

// awaitIntakeLocked blocks while a resolve/checkpoint barrier holds,
// then re-checks usability.
func (g *Group) awaitIntakeLocked() error {
	for g.resolving && !g.closed {
		g.intakeOK.Wait()
	}
	return g.usableLocked()
}

// homeShard returns the shard owning the record's minimum normalized
// token. Tokenless records go to shard 0.
func (g *Group) homeShard(text string) int {
	if g.st.n == 1 {
		return 0
	}
	toks := record.SortedTokens(text)
	if len(toks) == 0 {
		return 0
	}
	return ownerOf(toks[0], g.st.n)
}

// ownerOf maps a token to its owning shard by FNV-1a hash.
func ownerOf(token string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(token))
	return int(h.Sum32() % uint32(n))
}

// Add routes each record to its home shard, assigns dense global ids,
// and acknowledges after one commit per touched shard journal: a shard's
// group closes behind its last record of the call. Records bound for
// different shards are appended (and fsynced) in parallel. It returns
// the assigned global ids; on error, ids holds the prefix that was
// durably committed.
func (g *Group) Add(recs ...incremental.Record) ([]int, error) {
	type ack struct {
		gid  int
		done chan error
	}
	acks := make([]ack, 0, len(recs))

	g.mu.Lock()
	if err := g.awaitIntakeLocked(); err != nil {
		g.mu.Unlock()
		return nil, err
	}
	touched := make([]bool, len(g.shards))
	for _, r := range recs {
		r := r
		text := record.New(0, r.Fields).Text()
		sid := g.homeShard(text)
		touched[sid] = true
		r.GID = g.st.reserveGID(sid)
		if g.probe != nil {
			// The probe index is fed in gid order inside the serial
			// section, so every emitted pair's earlier endpoint is
			// already routed; pairs whose endpoints live on different
			// shards are the ones no shard can discover on its own.
			for _, sp := range g.probe.Add(text) {
				if g.st.home[int(sp.Pair.Lo)] != sid {
					g.queueHandoffLocked(sp)
				}
			}
		}
		s := g.shards[sid]
		done := make(chan error, 1)
		acks = append(acks, ack{gid: r.GID, done: done})
		// Two phases: the queue op appends + applies without blocking
		// on the fsync, so the queue goroutine moves straight on to the
		// next record and the journal's committer batches their events
		// into one group. The ack op — FIFO on the shard's ack queue,
		// so acknowledgment order matches append order — waits for the
		// group sync and only then exposes the gid as live.
		s.q.push(func() {
			ev := incremental.RecordEvent(s.eng.Len(), r)
			wait, err := s.commit(ev)
			st := statsOf(s.eng)
			s.ack.push(func() { done <- g.acked(s, ev, wait, err, st) })
		})
	}
	g.closeGroupsLocked(touched)
	g.mu.Unlock()

	ids := make([]int, 0, len(acks))
	for _, a := range acks {
		if err := <-a.done; err != nil {
			// Remaining acks must still be reaped so no goroutine
			// blocks, but the failed record's gid is now a hole and
			// later ids in this batch are not reported as committed.
			for _, rest := range acks[len(ids)+1:] {
				<-rest.done
			}
			return ids, err
		}
		ids = append(ids, a.gid)
	}
	return ids, nil
}

// closeGroupsLocked ends a request's appends: queued behind the ops the
// request pushed, each touched shard's open commit group closes, so the
// request's events on that journal share one fsync.
func (g *Group) closeGroupsLocked(touched []bool) {
	for sid, s := range g.shards {
		if touched[sid] {
			s.q.push(s.log.CloseGroup)
		}
	}
}

// acked finishes a queued shard mutation on the shard's ack queue: it
// waits out the event's durability and then, under mu, folds the
// event's routing half, refreshes the shard's stats mirror and
// publishes. err is the commit's immediate error, if any.
func (g *Group) acked(s *shardState, ev journal.Event, wait <-chan error, err error, st ShardStats) error {
	if err == nil {
		err = <-wait
	}
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.st.routeShard(s.id, ev); err != nil {
		return err
	}
	if ev.Record != nil {
		g.handoffWentLiveLocked(g.st.gidOf(*ev.Record))
	}
	g.stats[s.id] = st
	g.publishSnapshotLocked()
	return nil
}

// queueHandoffLocked queues a cross-shard candidate pair the probe just
// emitted. Its Hi endpoint is the record being routed, so the pair
// cannot be live yet.
func (g *Group) queueHandoffLocked(sp blocking.ScoredPair) {
	lo, hi := int(sp.Pair.Lo), int(sp.Pair.Hi)
	g.handoff = append(g.handoff, sp)
	g.awaited[hi] = append(g.awaited[hi], lo)
	if !g.st.live(lo) {
		g.awaited[lo] = append(g.awaited[lo], hi)
	}
}

// handoffWentLiveLocked counts the handoff pairs that gid's
// acknowledgment completes: those whose other endpoint is live already.
// The rest are counted when that endpoint is acknowledged, or never if
// it stays a hole.
func (g *Group) handoffWentLiveLocked(gid int) {
	for _, other := range g.awaited[gid] {
		if g.st.live(other) {
			g.handoffLive++
		}
	}
	delete(g.awaited, gid)
}

// Answer is one crowd answer for AddAnswers, keyed by global ids.
type Answer struct {
	Lo, Hi int
	FC     float64
	Source string
}

// InvalidAnswerError is the error of an answer that fails validation. A
// call that returns one has applied nothing.
type InvalidAnswerError string

// Error implements error.
func (e InvalidAnswerError) Error() string { return string(e) }

// ValidateAnswer checks whether (lo,hi,fc) — in global ids — is an
// answer AddAnswer would accept, without changing any state.
func (g *Group) ValidateAnswer(lo, hi int, fc float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.validateAnswerLocked(lo, hi, fc)
}

func (g *Group) validateAnswerLocked(lo, hi int, fc float64) error {
	if lo < 0 || lo >= hi || hi >= g.st.nextGID {
		return InvalidAnswerError(fmt.Sprintf("shard: answer pair (%d,%d) outside the record universe [0,%d)", lo, hi, g.st.nextGID))
	}
	if !g.st.live(lo) || !g.st.live(hi) {
		return InvalidAnswerError(fmt.Sprintf("shard: answer pair (%d,%d) references an unknown record", lo, hi))
	}
	if fc < 0 || fc > 1 || fc != fc {
		return InvalidAnswerError(fmt.Sprintf("shard: answer fc %v outside [0,1]", fc))
	}
	return nil
}

// AddAnswer is AddAnswers for one answer.
func (g *Group) AddAnswer(lo, hi int, fc float64, source string) error {
	_, err := g.AddAnswers([]Answer{{Lo: lo, Hi: hi, FC: fc, Source: source}})
	return err
}

// AddAnswers feeds a batch of externally-obtained crowd answers, keyed
// by global ids, each into the cache of its pair's home shard — or into
// the router's cross-shard cache when the records live on different
// shards. First answer wins; re-adding a known pair is a silent no-op.
// The whole batch is validated and routed under one hold of the router
// lock and commits once per touched journal. An invalid answer fails
// the call with an InvalidAnswerError before anything is applied; after
// a journal failure the count says how many answers are durable. Either
// error names the first answer it is about.
func (g *Group) AddAnswers(batch []Answer) (committed int, err error) {
	g.mu.Lock()
	if err := g.awaitIntakeLocked(); err != nil {
		g.mu.Unlock()
		return 0, err
	}
	for i, a := range batch {
		if err := g.validateAnswerLocked(a.Lo, a.Hi, a.FC); err != nil {
			g.mu.Unlock()
			return 0, fmt.Errorf("answer %d: %w", i, err)
		}
	}
	acks := make([]chan error, len(batch)) // nil for a cross-shard answer
	var cross []journal.Event
	touched := make([]bool, len(g.shards))
	for i, a := range batch {
		p := record.MakePair(record.ID(a.Lo), record.ID(a.Hi))
		sid, lp, same := g.st.sameShard(p)
		if !same {
			cross = append(cross, incremental.AnswerEvent(p, a.FC, a.Source))
			continue
		}
		s := g.shards[sid]
		touched[sid] = true
		done := make(chan error, 1)
		acks[i] = done
		ev := incremental.AnswerEvent(lp, a.FC, a.Source)
		// Same two-phase shape as Add: append + apply on the queue
		// goroutine, acknowledgment after the commit group syncs.
		s.q.push(func() {
			wait, err := durable, error(nil)
			if _, known := s.eng.Answer(int(lp.Lo), int(lp.Hi)); !known {
				wait, err = s.commit(ev)
			}
			st := statsOf(s.eng)
			s.ack.push(func() { done <- g.acked(s, ev, wait, err, st) })
		})
	}
	g.closeGroupsLocked(touched)
	crossErr := g.crossAnswersLocked(cross)
	g.mu.Unlock()

	for i, done := range acks {
		aerr := crossErr
		if done != nil {
			aerr = <-done
		}
		if aerr == nil {
			committed++
		} else if err == nil {
			err = fmt.Errorf("answer %d: %w", i, aerr)
		}
	}
	return committed, err
}

// crossAnswersLocked caches cross-shard answers at the router: the
// fresh ones (keep-first) are logged and committed with one fsync, then
// applied — WAL discipline, and nothing is applied if the commit fails.
func (g *Group) crossAnswersLocked(evs []journal.Event) error {
	if len(evs) == 0 {
		return nil
	}
	var fresh []journal.Event
	logged := make(map[record.Pair]bool, len(evs))
	for _, ev := range evs {
		p := record.MakePair(record.ID(ev.Answer.Lo), record.ID(ev.Answer.Hi))
		if _, known := g.st.xans[p]; known || logged[p] {
			continue
		}
		if _, err := g.router.AppendAsync(ev); err != nil {
			return err
		}
		logged[p] = true
		fresh = append(fresh, ev)
	}
	if len(fresh) == 0 {
		return nil
	}
	if err := g.router.Flush(); err != nil {
		return err
	}
	for _, ev := range fresh {
		if err := g.st.applyRouter(ev); err != nil {
			return err
		}
	}
	g.publishSnapshotLocked()
	return nil
}

// barrier blocks intake, waits for every shard queue to drain, flushes
// every shard log's commit group, and waits for the ack queues to
// finish their bookkeeping, then takes mu. The caller must call release
// when done. While the barrier holds, shard engines are quiescent,
// every applied event is durable, and every durable record is visible
// in the gid maps — without the flush + ack drain, a resolve could see
// records applied in an engine but still holes in the id maps, and lift
// their clusters out of range.
func (g *Group) barrier() error {
	g.mu.Lock()
	for g.resolving && !g.closed {
		g.intakeOK.Wait()
	}
	if err := g.usableLocked(); err != nil {
		g.mu.Unlock()
		return err
	}
	g.resolving = true
	g.mu.Unlock()
	for _, s := range g.shards {
		s.q.waitIdle()
	}
	var flushErr error
	for _, s := range g.shards {
		if err := s.log.Flush(); err != nil && flushErr == nil {
			flushErr = fmt.Errorf("shard %d flush: %w", s.id, err)
		}
	}
	for _, s := range g.shards {
		s.ack.waitIdle()
	}
	g.mu.Lock()
	if flushErr != nil {
		// Some engine applied events whose durability failed: its
		// in-memory state can no longer be trusted to match any
		// journal. Fail sticky; restart recovers the durable prefix.
		g.failed = flushErr
		g.resolving = false
		g.intakeOK.Broadcast()
		g.mu.Unlock()
		return flushErr
	}
	return nil
}

// release ends a barrier and republishes the snapshot. Engines are
// still quiescent here, so the stats mirrors can be resynced.
func (g *Group) release() {
	g.refreshStatsLocked()
	g.resolving = false
	g.publishSnapshotLocked()
	g.intakeOK.Broadcast()
	g.mu.Unlock()
}

// Resolve folds all pending work — every shard's candidate pairs plus
// the cross-shard handoff queue — into the global clustering with one
// RunResolve pass, exactly the pass a single engine holding all the
// records would run. The effect is logged router-first, then fanned out
// to each shard's journal; recovery repairs a crash between the two.
// ctx cancels the pass mid-crowd-iteration, leaving all state as before
// the call (answers already received stay cached).
func (g *Group) Resolve(ctx context.Context) (incremental.ResolveStats, error) {
	if err := g.barrier(); err != nil {
		return incremental.ResolveStats{}, err
	}
	defer g.release()

	st := g.st
	n := st.nextGID
	pend := make([]blocking.ScoredPair, 0)
	for _, s := range g.shards {
		for _, sp := range s.eng.PendingScored() {
			pend = append(pend, blocking.ScoredPair{Pair: st.globalPair(s.id, sp.Pair), Score: sp.Score})
		}
	}
	for _, sp := range g.handoff {
		// A hole endpoint means the record was never acked: the pair
		// must not become a candidate (the record does not exist).
		if st.live(int(sp.Pair.Lo)) && st.live(int(sp.Pair.Hi)) {
			pend = append(pend, sp)
		}
	}
	answered := append([]record.Pair(nil), st.xord...)
	for _, s := range g.shards {
		for _, p := range s.eng.AnsweredPairs() {
			answered = append(answered, st.globalPair(s.id, p))
		}
	}

	clusters, stats, err := incremental.RunResolve(g.cfg.Engine, incremental.ResolveState{
		N:            n,
		Round:        st.round + 1,
		ResolvedUpTo: st.resolvedUpTo,
		Clusters:     st.clusters,
		Pending:      pend,
		Answered:     answered,
		Answer:       st.lookupAnswer,
		Sink:         g.sinkAnswersLocked,
		Ctx:          ctx,
	})
	if err != nil {
		return stats, err
	}

	// Commit order: the router journal records the global effect first,
	// then each shard journals its restriction. A crash in between
	// leaves lagging shards, which recovery repairs from the router's
	// record — the reverse order could lose the global clustering with
	// shards already advanced, which nothing could repair.
	ev := incremental.ResolveEvent(stats.Round, n, clusters)
	if err := g.router.Append(ev); err != nil {
		return stats, err
	}
	for _, s := range g.shards {
		if err := s.commitSync(incremental.ResolveEvent(stats.Round, s.eng.Len(), st.restrictClusters(clusters, s.id))); err != nil {
			// Some shards committed, some did not: in-memory state can
			// no longer be trusted to match any journal. Fail sticky;
			// recovery reconciles from the router journal.
			g.failed = fmt.Errorf("resolve fan-out to shard %d: %w", s.id, err)
			return stats, g.failed
		}
	}
	if err := st.applyRouter(ev); err != nil {
		g.failed = err
		return stats, err
	}
	// Every handoff pair has Hi < n and is now covered.
	g.handoff, g.handoffLive = nil, 0
	clear(g.awaited)
	g.router.autoCheckpoint()
	return stats, nil
}

// sinkAnswersLocked gives one crowd iteration's fresh answers their
// durable homes — the owning shard's journal for same-shard pairs, the
// router journal otherwise — with one commit per touched journal, before
// the next iteration is bought. Safe to call only under a barrier (shard
// queues drained). A shard failure is sticky: its engine has applied
// answers that never became durable.
func (g *Group) sinkAnswersLocked(fresh []record.Pair, fcs []float64, source string) error {
	var cross []journal.Event
	touched := make([]bool, len(g.shards))
	for i, p := range fresh {
		sid, lp, same := g.st.sameShard(p)
		if !same {
			cross = append(cross, incremental.AnswerEvent(p, fcs[i], source))
			continue
		}
		s := g.shards[sid]
		if _, known := s.eng.Answer(int(lp.Lo), int(lp.Hi)); known {
			continue // the session never re-asks, but stay idempotent anyway
		}
		if _, err := s.commit(incremental.AnswerEvent(lp, fcs[i], source)); err != nil {
			g.failed = fmt.Errorf("resolve answer on shard %d: %w", sid, err)
			return g.failed
		}
		touched[sid] = true
	}
	for sid, s := range g.shards {
		if !touched[sid] {
			continue
		}
		if err := s.log.Flush(); err != nil {
			g.failed = fmt.Errorf("resolve answers on shard %d: %w", sid, err)
			return g.failed
		}
	}
	return g.crossAnswersLocked(cross)
}

// Checkpoint drains all shards and writes a compacted snapshot to every
// journal (each shard's plus the router's). No-op when volatile.
func (g *Group) Checkpoint() error {
	if err := g.barrier(); err != nil {
		return err
	}
	defer g.release()
	for _, s := range g.shards {
		if err := s.log.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d checkpoint: %w", s.id, err)
		}
	}
	return g.router.Checkpoint()
}

// Close drains every shard, stops the queue goroutines, and closes all
// journals. The group rejects further mutations.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.intakeOK.Broadcast()
	g.mu.Unlock()

	var first error
	for _, s := range g.shards {
		s.q.close() // drains queued ops, then the goroutine exits
		// Closing the log flushes its committer, resolving every
		// outstanding ack wait — only then can the ack queue drain.
		if err := s.log.Close(); err != nil && first == nil {
			first = err
		}
		s.ack.close()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.router.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
