package shard

import "acd/internal/journal"

// Feed describes one journal a journaled group exposes for
// replication: the name followers file it under, a read-only view of
// its directory, and the durable watermark bounding what a streamer
// may ship.
type Feed struct {
	// Name is the journal's directory name within the layout
	// (shard-XXX, or the router's).
	Name string
	// FS is the journal's directory. Streamers only read from it.
	FS journal.FS
	// Durable reports the journal's current durable sequence watermark.
	// It is safe to call from any goroutine.
	Durable func() int64
}

// Feeds lists every journal in the group's layout — one per shard plus
// the router — for a replication streamer. Nil for volatile groups:
// with no durable log there is nothing to ship.
func (g *Group) Feeds() []Feed {
	if g.layout == nil {
		return nil
	}
	feeds := make([]Feed, 0, len(g.shards)+1)
	for i, s := range g.shards {
		feeds = append(feeds, Feed{
			Name:    journal.ShardDirName(i),
			FS:      g.layout.ShardFS[i],
			Durable: s.log.DurableSeq,
		})
	}
	// A layout without a router journal still lists the (empty) feed:
	// followers mirror the directory either way.
	return append(feeds, Feed{
		Name:    journal.RouterDir,
		FS:      g.layout.RouterFS,
		Durable: g.router.DurableSeq,
	})
}

// Epoch returns the replication epoch stamped in the layout's
// meta.json when the group was opened (0 for volatile groups and
// never-fenced layouts).
func (g *Group) Epoch() int64 {
	if g.layout == nil {
		return 0
	}
	return g.layout.Epoch
}
