package shard

import "fmt"

// Snapshot is an immutable view of the group's clustering state,
// published behind an atomic pointer on every mutation. Readers load
// it wait-free: serving GET /clusters from a snapshot never touches
// the group mutex, the shard queues, or any engine, and finds Clusters
// fully materialised. The publisher does not pay for that per mutation
// either: an acknowledged record appends one singleton to a listing the
// state keeps current, an answer changes nothing in it, and the
// snapshot's Clusters is a capacity-clamped header over that listing's
// array, whose published elements are never written again. Only a
// resolve or checkpoint that installs a clustering — or a record
// acknowledged out of gid order — has the listing rebuilt. All ids are
// global ids.
type Snapshot struct {
	// Shards is the group's shard count.
	Shards int
	// Records counts live (durably acknowledged) records.
	Records int
	// Round is the number of completed resolve passes.
	Round int
	// ResolvedUpTo is the global-id watermark of the last resolve.
	ResolvedUpTo int
	// PendingPairs counts candidate pairs awaiting the next resolve,
	// across all shards plus the cross-shard handoff queue.
	PendingPairs int
	// Answers counts cached crowd answers (shard-local plus
	// cross-shard).
	Answers int
	// Clusters is the clustering over live global ids in canonical
	// form (members ascending, clusters by first member).
	Clusters [][]int
	// PerShard holds per-shard occupancy, indexed by shard.
	PerShard []ShardStats
}

// ShardStats is one shard's slice of a Snapshot.
type ShardStats struct {
	// Records is the shard's record count.
	Records int
	// PendingPairs counts the shard's own pending candidate pairs
	// (cross-shard pairs live at the router, not here).
	PendingPairs int
	// Answers counts the shard's cached answers.
	Answers int
}

// Snapshot returns the current published snapshot. It never blocks and
// never observes a half-applied mutation: snapshots are immutable and
// replaced wholesale.
func (g *Group) Snapshot() *Snapshot { return g.snap.Load() }

// publishSnapshotLocked swaps in a snapshot of the current state.
// Callers hold mu, so every published snapshot is some fully-applied
// state — readers can never see a torn one. The per-shard figures come
// from the stats mirrors (maintained by each engine's owner), never
// from the engines directly: another shard's engine may be mid-append
// when this runs.
func (g *Group) publishSnapshotLocked() {
	snap := g.st.snapshot(g.stats, g.handoffLive)
	g.snap.Store(snap)
	g.publishGaugesLocked(snap)
}

// shardGauges holds one shard's instantiated gauge names.
type shardGauges struct{ records, pending, answers string }

// publishGaugesLocked exports per-shard occupancy gauges.
func (g *Group) publishGaugesLocked(snap *Snapshot) {
	rec := g.cfg.Engine.Obs
	if rec == nil {
		return
	}
	rec.Gauge(GaugeShards, float64(snap.Shards))
	rec.Gauge(GaugeHandoffPairs, float64(len(g.handoff)))
	for i, st := range snap.PerShard {
		rec.Gauge(g.gauges[i].records, float64(st.Records))
		rec.Gauge(g.gauges[i].pending, float64(st.PendingPairs))
		rec.Gauge(g.gauges[i].answers, float64(st.Answers))
	}
}

// Gauge names the group exports through its configured obs.Recorder.
// Per-shard gauges are derived with ShardGauge.
const (
	// GaugeShards is the group's shard count.
	GaugeShards = "shard/shards"
	// GaugeHandoffPairs is the cross-shard handoff queue length.
	GaugeHandoffPairs = "shard/handoff_pairs"
	// GaugeShardRecords is the per-shard record count.
	GaugeShardRecords = "shard/%03d/records"
	// GaugeShardPending is the per-shard pending candidate pair count.
	GaugeShardPending = "shard/%03d/pending_pairs"
	// GaugeShardAnswers is the per-shard cached answer count.
	GaugeShardAnswers = "shard/%03d/answers"
)

// ShardGauge instantiates a per-shard gauge name for shard i.
func ShardGauge(pattern string, i int) string { return fmt.Sprintf(pattern, i) }
