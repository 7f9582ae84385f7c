package replica

// The deterministic replication simulation: a scripted leader workload
// over MemFS, a seeded chaotic link, and three families of assertions —
// (a) follower standby state is byte-identical to what recovery would
// rebuild from the leader's journal prefix at the follower's cursor,
// (b) promotion after a leader power-loss at every operation offset
// preserves the committed-prefix contract (no acked record lost, none
// invented, no answer double-applied), and (c) follower stale reads are
// always prefix-consistent snapshots. Everything is driven from seeded
// PRNGs, so a failure replays exactly.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/shard"
)

// simOp is one scripted leader operation.
type simOp struct {
	kind string // "add", "answer", "resolve", "checkpoint"
	recs []incremental.Record
	aIdx [2]int // acked-gid indices for an answer op
	fc   float64
}

// buildOps scripts a deterministic workload: mostly adds with
// duplicate-prone texts, some answers over already-acked records, a
// few resolves and checkpoints.
func buildOps(rng *rand.Rand, n, maxBatch int) []simOp {
	ops := make([]simOp, 0, n)
	acked := 0
	for len(ops) < n {
		roll := rng.Float64()
		switch {
		case roll < 0.60 || acked < 2:
			batch := 1 + rng.Intn(maxBatch)
			recs := make([]incremental.Record, batch)
			for i := range recs {
				ent := rng.Intn(1 + acked/2)
				recs[i] = incremental.Record{
					Fields: map[string]string{
						"name": fmt.Sprintf("entity %03d common token", ent),
						"city": fmt.Sprintf("city %d", ent%5),
					},
					Entity: fmt.Sprintf("e%03d", ent),
				}
			}
			ops = append(ops, simOp{kind: "add", recs: recs})
			acked += batch
		case roll < 0.85:
			i, j := rng.Intn(acked), rng.Intn(acked)
			if i == j {
				j = (j + 1) % acked
			}
			ops = append(ops, simOp{kind: "answer", aIdx: [2]int{i, j}, fc: rng.Float64()})
		case roll < 0.95:
			ops = append(ops, simOp{kind: "resolve"})
		default:
			ops = append(ops, simOp{kind: "checkpoint"})
		}
	}
	return ops
}

// ledger tracks what the leader has acknowledged to "clients".
type ledger struct {
	acked   []int // gids returned by Add, in ack order
	issued  int   // records handed to Add (acked or not)
	answers map[[2]int]float64
}

func newLedger() *ledger { return &ledger{answers: make(map[[2]int]float64)} }

// applyOp drives one scripted op into the leader, recording acks.
func applyOp(t *testing.T, g *shard.Group, op simOp, led *ledger) {
	t.Helper()
	switch op.kind {
	case "add":
		led.issued += len(op.recs)
		gids, err := g.Add(op.recs...)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		led.acked = append(led.acked, gids...)
	case "answer":
		lo, hi := led.acked[op.aIdx[0]], led.acked[op.aIdx[1]]
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return
		}
		if err := g.AddAnswer(lo, hi, op.fc, "sim"); err != nil {
			t.Fatalf("AddAnswer(%d,%d): %v", lo, hi, err)
		}
		if _, dup := led.answers[[2]int{lo, hi}]; !dup {
			led.answers[[2]int{lo, hi}] = op.fc
		}
	case "resolve":
		if _, err := g.Resolve(context.Background()); err != nil {
			t.Fatalf("Resolve: %v", err)
		}
	case "checkpoint":
		if err := g.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
}

// simEngineCfg is the engine config every simulation node shares.
// Small rotation and checkpoint cadence force segment churn and
// checkpoint shipping through the replication path.
func simEngineCfg(seed int64) incremental.Config {
	return incremental.Config{
		Seed:            seed,
		RotateBytes:     600,
		CheckpointEvery: 24,
	}
}

// stepTolerant advances the follower, failing the test only on fatal
// errors — injected link faults are the point of the exercise.
func stepTolerant(t *testing.T, fol *Follower) bool {
	t.Helper()
	advanced, err := fol.Step(context.Background())
	if err != nil && isFatal(err) {
		t.Fatalf("fatal replication error: %v", err)
	}
	return advanced && err == nil
}

// drain steps until a full clean round advances nothing, i.e. the
// follower holds everything the leader has committed.
func drain(t *testing.T, fol *Follower) {
	t.Helper()
	// A round that only saw injected faults or duplicate (stale) batches
	// makes no progress without being caught up, so idle rounds alone
	// can't prove the follower is drained — require the lag gauge to hit
	// zero too (leader watermarks ride every clean batch, duplicates
	// included, so Lag is trustworthy once writes stop).
	idle := 0
	for tries := 0; idle < 2 || fol.Lag() > 0; tries++ {
		if tries > 10000 {
			t.Fatalf("follower failed to drain; status %+v", fol.Status())
		}
		advanced, err := fol.Step(context.Background())
		if err != nil {
			if isFatal(err) {
				t.Fatalf("fatal replication error: %v", err)
			}
			idle = 0
			continue
		}
		if advanced {
			idle = 0
		} else {
			idle++
		}
	}
}

// snapJSON renders an engine snapshot with the journal position zeroed
// — the byte-identity oracle form.
func snapJSON(t *testing.T, cp *journal.Checkpoint) string {
	t.Helper()
	cp.Seq = 0
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertByteIdentity checks every shard engine in the follower's
// standby against an engine rebuilt (via the recovery fold) from the
// leader journal's prefix at the follower's cursor. Cursors the
// leader has compacted past are skipped mid-stream — the prefix is no
// longer reconstructable — but the final drained check always runs.
func assertByteIdentity(t *testing.T, leader *shard.Group, fol *Follower, cfg shard.Config) {
	t.Helper()
	feeds := make(map[string]shard.Feed)
	for _, f := range leader.Feeds() {
		feeds[f.Name] = f
	}
	st := fol.Status()
	for i := 0; i < cfg.Shards; i++ {
		name := journal.ShardDirName(i)
		cursor := st.Journals[name].Applied
		if cursor == 0 {
			continue
		}
		tb, err := journal.ReadTail(feeds[name].FS, 1, cursor, 0)
		if err != nil {
			t.Fatalf("oracle tail %s: %v", name, err)
		}
		if tb.Checkpoint != nil && tb.Checkpoint.Seq > cursor {
			continue // compacted past the cursor; prefix gone
		}
		oracle, err := incremental.Rebuild(cfg.Engine, tb.Checkpoint, tb.Events)
		if err != nil {
			t.Fatalf("oracle rebuild %s: %v", name, err)
		}
		want := snapJSON(t, oracle.Snapshot())
		got := snapJSON(t, fol.Standby().Engine(i).Snapshot())
		if got != want {
			t.Fatalf("shard %d state diverged at seq %d:\n got %s\nwant %s", i, cursor, got, want)
		}
	}
}

// assertPrefixConsistent checks a standby snapshot is internally
// consistent (clusters partition the live ids) and monotone relative
// to the previous read — what "stale but prefix-consistent" means for
// a reader.
func assertPrefixConsistent(t *testing.T, snap, prev *shard.Snapshot) {
	t.Helper()
	seen := make(map[int]bool)
	for _, set := range snap.Clusters {
		for _, gid := range set {
			if seen[gid] {
				t.Fatalf("gid %d in two clusters: %v", gid, snap.Clusters)
			}
			seen[gid] = true
		}
	}
	if len(seen) != snap.Records {
		t.Fatalf("clusters cover %d live ids, snapshot claims %d records", len(seen), snap.Records)
	}
	if prev != nil {
		if snap.Records < prev.Records {
			t.Fatalf("records regressed: %d after %d", snap.Records, prev.Records)
		}
		if snap.Round < prev.Round {
			t.Fatalf("round regressed: %d after %d", snap.Round, prev.Round)
		}
		if snap.Answers < prev.Answers {
			t.Fatalf("answers regressed: %d after %d", snap.Answers, prev.Answers)
		}
	}
}

// chaosMixes are the fault profiles the sweep runs: a clean link, a
// moderately lossy one, and a hostile one.
func chaosMixes() []ChaosConfig {
	return []ChaosConfig{
		{},
		{Drop: 0.15, Duplicate: 0.15, Truncate: 0.20, Partition: 0.05, PartitionLen: 3},
		{Drop: 0.40, Duplicate: 0.25, Truncate: 0.25, Partition: 0.05, PartitionLen: 6},
	}
}

// TestSimReplication is the replication half of the deterministic
// simulation: seeds × shard counts × fault mixes, with byte-identity
// and prefix-consistency checked throughout and full equality with the
// leader's own snapshot once drained.
func TestSimReplication(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, seed := range []int64{1, 7} {
			for mi, mix := range chaosMixes() {
				mix := mix
				name := fmt.Sprintf("shards=%d/seed=%d/mix=%d", shards, seed, mi)
				t.Run(name, func(t *testing.T) {
					runReplicationSim(t, shards, seed, mix)
				})
			}
		}
	}
}

func runReplicationSim(t *testing.T, shards int, seed int64, mix ChaosConfig) {
	cfg := shard.Config{Shards: shards, Engine: simEngineCfg(seed)}
	leaderTree := journal.NewMemTree()
	leader, err := shard.Open(cfg, leaderTree)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	src, err := NewLocalSource(leader)
	if err != nil {
		t.Fatal(err)
	}
	mix.Seed = seed * 31
	link := NewChaosLink(src, mix)
	fol, err := NewFollower(context.Background(), Config{
		Shard:    cfg,
		Tree:     journal.NewMemTree(),
		Source:   link,
		MaxBatch: 7, // small batches force many fetches through the chaos
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	rng := rand.New(rand.NewSource(seed))
	ops := buildOps(rng, 70, 3)
	led := newLedger()
	var prevSnap *shard.Snapshot
	for i, op := range ops {
		applyOp(t, leader, op, led)
		stepTolerant(t, fol)
		if i%9 == 4 {
			snap := fol.Standby().Snapshot()
			assertPrefixConsistent(t, snap, prevSnap)
			prevSnap = snap
			assertByteIdentity(t, leader, fol, cfg)
		}
	}
	drain(t, fol)
	if lag := fol.Lag(); lag != 0 {
		t.Fatalf("drained follower still lags %d events", lag)
	}
	assertByteIdentity(t, leader, fol, cfg)

	// Fully drained, the standby's published view must match the
	// leader's own snapshot field for field (PendingPairs excepted:
	// standbys do not mirror the cross-shard handoff queue).
	want, got := leader.Snapshot(), fol.Standby().Snapshot()
	if got.Records != want.Records || got.Round != want.Round ||
		got.ResolvedUpTo != want.ResolvedUpTo || got.Answers != want.Answers {
		t.Fatalf("drained standby %+v, leader %+v", got, want)
	}
	wj, _ := json.Marshal(want.Clusters)
	gj, _ := json.Marshal(got.Clusters)
	if string(wj) != string(gj) {
		t.Fatalf("drained clustering differs:\n got %s\nwant %s", gj, wj)
	}
	if len(led.acked) != want.Records {
		t.Fatalf("leader snapshot holds %d records, ledger acked %d", want.Records, len(led.acked))
	}
	if mix.Drop+mix.Duplicate+mix.Truncate+mix.Partition > 0 && link.Injected() == 0 {
		t.Fatal("chaos link injected nothing; the sweep is not exercising faults")
	}
}

// TestSimPromotionEveryOffset is the failover half: the leader is
// power-lost after every operation offset, the follower (partially
// caught up, behind a chaotic link) promotes over the crash image, and
// the promoted group must match a direct recovery of that image
// exactly — the committed-prefix contract, plus ledger floor/ceiling
// bounds and a probe write proving the promoted node takes traffic.
func TestSimPromotionEveryOffset(t *testing.T) {
	for _, shards := range []int{1, 3} {
		seed := int64(11 + shards)
		rng := rand.New(rand.NewSource(seed))
		ops := buildOps(rng, 24, 1)
		for offset := 0; offset <= len(ops); offset++ {
			t.Run(fmt.Sprintf("shards=%d/offset=%d", shards, offset), func(t *testing.T) {
				runPromotionSim(t, shards, seed, ops[:offset], offset)
			})
		}
	}
}

func runPromotionSim(t *testing.T, shards int, seed int64, ops []simOp, offset int) {
	cfg := shard.Config{Shards: shards, Engine: simEngineCfg(seed)}
	leaderTree := journal.NewMemTree()
	leader, err := shard.Open(cfg, leaderTree)
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewLocalSource(leader)
	if err != nil {
		t.Fatal(err)
	}
	link := NewChaosLink(src, ChaosConfig{
		Seed: seed*1009 + int64(offset),
		Drop: 0.3, Duplicate: 0.2, Truncate: 0.2,
	})
	fol, err := NewFollower(context.Background(), Config{
		Shard:    cfg,
		Tree:     journal.NewMemTree(),
		Source:   link,
		MaxBatch: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	led := newLedger()
	for _, op := range ops {
		applyOp(t, leader, op, led)
		stepTolerant(t, fol) // the follower trails at a fault-dependent lag
	}

	// Power loss: only synced bytes survive. The crash image is taken
	// before Close so the dying process adds nothing.
	crash := leaderTree.CrashCopy()
	oracleImage := crash.CrashCopy() // pristine copy for the recovery oracle
	leader.Close()

	promoted, err := fol.Promote(crash)
	if err != nil {
		t.Fatalf("promote at offset %d: %v", offset, err)
	}
	defer promoted.Close()
	if err := fol.Close(); err != nil {
		t.Fatalf("closing promoted follower: %v", err)
	}

	// The promoted node is fenced forward of the dead leader.
	if promoted.Epoch() < 1 {
		t.Fatalf("promoted epoch %d, want >= 1", promoted.Epoch())
	}
	oldEpoch, err := journal.ReadEpoch(crash.Root())
	if err != nil {
		t.Fatal(err)
	}
	if oldEpoch != promoted.Epoch() {
		t.Fatalf("old tree fenced at %d, promoted at %d", oldEpoch, promoted.Epoch())
	}

	// Committed-prefix contract, part 1: the promoted state equals a
	// direct recovery of the crash image — nothing lost, nothing
	// invented, nothing double-applied.
	oracle, err := shard.Open(cfg, oracleImage)
	if err != nil {
		t.Fatalf("oracle recovery: %v", err)
	}
	defer oracle.Close()
	oj, _ := json.Marshal(zeroShards(oracle.Snapshot()))
	pj, _ := json.Marshal(zeroShards(promoted.Snapshot()))
	if string(oj) != string(pj) {
		t.Fatalf("promoted state differs from direct recovery at offset %d:\npromoted %s\n  oracle %s", offset, pj, oj)
	}

	// Part 2: ledger bounds. Every acked record is present in the
	// clustering; the total never exceeds what clients submitted; every
	// acked answer survives.
	snap := promoted.Snapshot()
	live := make(map[int]bool)
	for _, set := range snap.Clusters {
		for _, gid := range set {
			live[gid] = true
		}
	}
	for _, gid := range led.acked {
		if !live[gid] {
			t.Fatalf("acked gid %d missing after promotion at offset %d", gid, offset)
		}
	}
	if snap.Records < len(led.acked) || snap.Records > led.issued {
		t.Fatalf("promoted records %d outside [acked %d, issued %d]", snap.Records, len(led.acked), led.issued)
	}
	if snap.Answers < len(led.answers) {
		t.Fatalf("promoted answers %d below acked floor %d", snap.Answers, len(led.answers))
	}

	// Part 3: the promoted node takes writes.
	ids, err := promoted.Add(incremental.Record{Fields: map[string]string{"name": "post promotion probe"}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("promoted Add: %v (%v)", err, ids)
	}
	if _, err := promoted.Resolve(context.Background()); err != nil {
		t.Fatalf("promoted Resolve: %v", err)
	}
}

// zeroShards normalizes snapshot copies for deep comparison (PerShard
// occupancy depends only on state, so it is kept).
func zeroShards(s *shard.Snapshot) *shard.Snapshot { return s }

// TestFollowerRefusesStaleEpoch pins the fencing contract: a follower
// that has durably seen epoch E refuses to fold batches from any
// leader below E.
func TestFollowerRefusesStaleEpoch(t *testing.T) {
	cfg := shard.Config{Shards: 2, Engine: simEngineCfg(5)}
	leaderTree := journal.NewMemTree()
	leader, err := shard.Open(cfg, leaderTree)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src, err := NewLocalSource(leader)
	if err != nil {
		t.Fatal(err)
	}

	folTree := journal.NewMemTree()
	if _, err := journal.OpenLayout(folTree, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.SetEpoch(folTree.Root(), 7); err != nil {
		t.Fatal(err)
	}
	_, err = NewFollower(context.Background(), Config{Shard: cfg, Tree: folTree, Source: src})
	if err == nil || !errorsIs(err, ErrStaleEpoch) {
		t.Fatalf("stale leader accepted: %v", err)
	}
}

// errorsIs avoids importing errors twice in a test-only helper.
func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestPromoteWithoutOldTree covers total leader loss: no old disk to
// replay, the follower promotes with exactly what it replicated.
func TestPromoteWithoutOldTree(t *testing.T) {
	cfg := shard.Config{Shards: 2, Engine: simEngineCfg(9)}
	leaderTree := journal.NewMemTree()
	leader, err := shard.Open(cfg, leaderTree)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewLocalSource(leader)
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(context.Background(), Config{Shard: cfg, Tree: journal.NewMemTree(), Source: src})
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger()
	rng := rand.New(rand.NewSource(9))
	for _, op := range buildOps(rng, 12, 2) {
		applyOp(t, leader, op, led)
	}
	drain(t, fol)
	replicated := fol.Standby().Snapshot().Records
	leader.Close()

	promoted, err := fol.Promote(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if got := promoted.Snapshot().Records; got != replicated {
		t.Fatalf("promoted holds %d records, follower had replicated %d", got, replicated)
	}
	if promoted.Epoch() != 1 {
		t.Fatalf("promoted epoch %d, want 1", promoted.Epoch())
	}
}

// TestChaosLinkDeterministic pins that a seed fully determines the
// fault stream — the property that makes every simulation replayable.
func TestChaosLinkDeterministic(t *testing.T) {
	cfg := shard.Config{Shards: 1, Engine: simEngineCfg(3)}
	run := func() (int, string) {
		tree := journal.NewMemTree()
		g, err := shard.Open(cfg, tree)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		led := newLedger()
		rng := rand.New(rand.NewSource(3))
		for _, op := range buildOps(rng, 20, 2) {
			applyOp(t, g, op, led)
		}
		src, err := NewLocalSource(g)
		if err != nil {
			t.Fatal(err)
		}
		link := NewChaosLink(src, ChaosConfig{Seed: 99, Drop: 0.3, Duplicate: 0.2, Truncate: 0.2, Partition: 0.1, PartitionLen: 2})
		var trace string
		for i := 0; i < 40; i++ {
			b, err := link.Fetch(context.Background(), journal.ShardDirName(0), 1, 4)
			if err != nil {
				trace += "E"
				continue
			}
			trace += fmt.Sprintf("%d", len(b.Events))
		}
		return link.Injected(), trace
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("same seed diverged: %d/%s vs %d/%s", n1, t1, n2, t2)
	}
	if n1 == 0 {
		t.Fatal("chaos injected nothing at these rates")
	}
}
