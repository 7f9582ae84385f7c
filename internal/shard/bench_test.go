package shard

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acd/internal/dataset"
	"acd/internal/incremental"
	"acd/internal/journal"
)

// benchSink keeps snapshot reads observable so the compiler cannot
// elide them.
var benchSink atomic.Int64

// BenchmarkGroupMixed measures one serving unit on a journaled group:
// 1024 records ingested by concurrent writers (each write followed by
// a snapshot read), then one global resolve, on a fresh directory every
// iteration so the cost per op is constant. The shard count comes from
// ACD_BENCH_SHARDS (default 4), so one benchmark name covers both
// sides of the single-vs-sharded comparison in BENCH_6.json:
//
//	ACD_BENCH_SHARDS=1 go test -bench GroupMixed ./internal/shard/   # single engine
//	ACD_BENCH_SHARDS=4 go test -bench GroupMixed ./internal/shard/   # sharded
//
// Sharding parallelizes the per-shard work (journal fsyncs, blocking
// index updates, pair scoring); the router's serial section and the
// global resolve pass are the invariant costs it cannot shard.
func BenchmarkGroupMixed(b *testing.B) {
	shards := 4
	if s := os.Getenv("ACD_BENCH_SHARDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("ACD_BENCH_SHARDS=%q: %v", s, err)
		}
		shards = v
	}
	cfg := Config{Shards: shards, Engine: incremental.Config{Seed: 1}}

	// A fixed batch over a 96-token vocabulary: enough collisions to
	// keep the blocking indexes and the resolve pass honestly busy,
	// spread over every shard.
	rng := rand.New(rand.NewSource(11))
	batch := make([]incremental.Record, 1024)
	for i := range batch {
		batch[i] = incremental.Record{Fields: map[string]string{
			"name": fmt.Sprintf("tok%02d tok%02d item%04d", rng.Intn(96), rng.Intn(96), i),
		}}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree, err := journal.NewDirTree(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		g, err := Open(cfg, tree)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(batch); j += workers {
					if _, err := g.Add(batch[j]); err != nil {
						b.Error(err)
						return
					}
					benchSink.Store(int64(g.Snapshot().Records))
				}
			}(w)
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		if _, err := g.Resolve(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := g.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupAdd isolates the router's write path over a no-op disk:
// one iteration opens a group on a journal.MemTree (appends and fsyncs
// are memory copies, so what is left is the serial section, the probe
// index at 2 shards, the shard engines, the journal encoding and the
// snapshot publish per acknowledged record) and adds 4 000
// dataset.Synthetic records, 8 per call as the repository benchmark's
// clients post them, from one client; at 2 shards the records of one
// call are acknowledged out of gid order. Besides ns/op it reports
// ns/record and growth — mean Add time over the last tenth of the
// records divided by that over the first tenth, the ratio the
// repository benchmark's ladder prints as shard.add_growth.
func BenchmarkGroupAdd(b *testing.B) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{Records: 4000, Entities: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]incremental.Record, len(d.Records))
	for i, r := range d.Records {
		recs[i] = incremental.Record{Fields: r.Fields}
	}
	for _, shape := range []struct {
		name   string
		shards int
	}{{"1shard", 1}, {"2shards", 2}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			tenth := len(recs) / 10
			var first, last, total time.Duration
			for i := 0; i < b.N; i++ {
				g, err := Open(Config{Shards: shape.shards, Engine: incremental.Config{Seed: 1}}, journal.NewMemTree())
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				var afterFirst, beforeLast time.Time
				for k := 0; k < len(recs); k += 8 {
					switch k {
					case tenth:
						afterFirst = time.Now()
					case len(recs) - tenth:
						beforeLast = time.Now()
					}
					if _, err := g.Add(recs[k : k+8]...); err != nil {
						b.Fatal(err)
					}
				}
				end := time.Now()
				first += afterFirst.Sub(start)
				last += end.Sub(beforeLast)
				total += end.Sub(start)
				benchSink.Store(int64(g.Snapshot().Records))
				if err := g.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*len(recs)), "ns/record")
			b.ReportMetric(float64(last)/float64(first), "growth")
		})
	}
}
