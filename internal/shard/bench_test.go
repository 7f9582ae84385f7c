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
	recs := benchRecords(b, 4000)
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

// syncsOf sums the file fsyncs a MemTree's journals have issued.
func syncsOf(tree *journal.MemTree, shards int) int {
	total := 0
	for _, n := range fsyncs(tree, shards) {
		total += n
	}
	return total
}

// benchRecords returns n dataset.Synthetic records, ten to an entity.
func benchRecords(b *testing.B, n int) []incremental.Record {
	b.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{Records: n, Entities: n / 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]incremental.Record, len(d.Records))
	for i, r := range d.Records {
		recs[i] = incremental.Record{Fields: r.Fields}
	}
	return recs
}

// BenchmarkGroupAddAnswers isolates the answer path over a no-op disk:
// one iteration posts 4 000 fresh answers over 200 resident records, 4
// per AddAnswers call as the repository benchmark's clients post them.
// At 2 shards a call's answers are homed in up to three journals (both
// shards' and the router's). Besides ns/op it reports ns/answer and
// fsyncs/answer — the commit count, from the MemTree's fsync counters,
// which is one per journal a call touches.
func BenchmarkGroupAddAnswers(b *testing.B) {
	recs := benchRecords(b, 200)
	var pairs []Answer
	for lo := 0; lo < len(recs) && len(pairs) < 4000; lo++ {
		for hi := lo + 1; hi < len(recs) && len(pairs) < 4000; hi++ {
			pairs = append(pairs, Answer{Lo: lo, Hi: hi, FC: float64((lo + hi) % 2), Source: "bench"})
		}
	}
	for _, shape := range []struct {
		name   string
		shards int
	}{{"1shard", 1}, {"2shards", 2}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var total time.Duration
			fsyncs := 0
			for i := 0; i < b.N; i++ {
				tree := journal.NewMemTree()
				g, err := Open(Config{Shards: shape.shards, Engine: incremental.Config{Seed: 1}}, tree)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.Add(recs...); err != nil {
					b.Fatal(err)
				}
				before, start := syncsOf(tree, shape.shards), time.Now()
				for k := 0; k < len(pairs); k += 4 {
					if n, err := g.AddAnswers(pairs[k : k+4]); err != nil || n != 4 {
						b.Fatalf("AddAnswers = (%d, %v)", n, err)
					}
				}
				total += time.Since(start)
				fsyncs += syncsOf(tree, shape.shards) - before
				benchSink.Store(int64(g.Snapshot().Answers))
				if err := g.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*len(pairs)), "ns/answer")
			b.ReportMetric(float64(fsyncs)/float64(b.N*len(pairs)), "fsyncs/answer")
		})
	}
}

// BenchmarkGroupResolveSink isolates the resolve sink over a no-op
// disk: one iteration is one resolve over 400 fresh records on a 1-shard
// group, whose machine-answered crowd session buys about 500 answers
// that the sink journals iteration by iteration. Besides ns/op it
// reports answers (bought per resolve), ns/answer over the whole resolve
// and fsyncs/iteration — one commit per crowd iteration, plus the
// resolve event's own spread over them.
func BenchmarkGroupResolveSink(b *testing.B) {
	recs := benchRecords(b, 400)
	b.ReportAllocs()
	var total time.Duration
	answers, iterations, fsyncs := 0, 0, 0
	for i := 0; i < b.N; i++ {
		tree := journal.NewMemTree()
		g, err := Open(Config{Shards: 1, Engine: incremental.Config{Seed: 1}}, tree)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Add(recs...); err != nil {
			b.Fatal(err)
		}
		before, start := syncsOf(tree, 1), time.Now()
		stats, err := g.Resolve(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		fsyncs += syncsOf(tree, 1) - before
		answers += stats.QuestionsAsked
		iterations += stats.Iterations
		if err := g.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if answers == 0 || iterations == 0 {
		b.Fatal("the resolve bought no answers: nothing reached the sink")
	}
	b.ReportMetric(float64(answers)/float64(b.N), "answers")
	b.ReportMetric(float64(total.Nanoseconds())/float64(answers), "ns/answer")
	b.ReportMetric(float64(fsyncs)/float64(iterations), "fsyncs/iteration")
}
