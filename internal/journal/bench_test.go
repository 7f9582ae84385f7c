package journal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"acd/internal/histogram"
)

// benchCommitter measures the append path through a Committer: many
// concurrent appenders, each blocking on its event's durability — the
// shape acdserve's ingest handlers produce. Group size 1 is the
// per-event baseline (Append — append, close, wait — one caller at a
// time, so one fsync per event as in BENCH_8.json); 16 and 256 cap the
// commit group. Reported metrics: events/sec (the b.N rate) and p99
// append latency in microseconds.
func benchCommitter(b *testing.B, fs FS, group int) {
	b.Helper()
	s, _, err := OpenOptions(fs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pol := GroupPolicy{}
	if group > 1 {
		pol = GroupPolicy{Window: 2 * time.Millisecond, MaxEvents: group}
	}
	c := NewCommitter(s, pol)
	defer c.Close()

	// Enough concurrent appenders that the size cap is reachable —
	// otherwise large groups degenerate to pure window pacing and the
	// ladder measures the timer, not the batching.
	workers := 2 * group
	if workers < 32 {
		workers = 32
	}
	// appendDurable is one worker's append, returning once it is durable.
	appendDurable := func(i int) error {
		_, wait, err := c.AppendAsync(recordEv(i))
		if err != nil {
			return err
		}
		return <-wait
	}
	if group == 1 {
		var one sync.Mutex
		appendDurable = func(i int) error {
			one.Lock()
			defer one.Unlock()
			_, err := c.Append(recordEv(i))
			return err
		}
	}
	lat := histogram.NewLatency()
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				if err := appendDurable(i); err != nil {
					b.Error(err)
					return
				}
				lat.Observe(time.Since(t0))
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(lat.Quantile(0.99))/float64(time.Microsecond), "p99-µs")
}

// BenchmarkJournalAppendMemFS: the group-commit ladder over the
// in-memory FS — isolates the batching/coordination overhead with
// fsync cost near zero.
func BenchmarkJournalAppendMemFS(b *testing.B) {
	for _, group := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("group%d", group), func(b *testing.B) {
			benchCommitter(b, NewMemFS(), group)
		})
	}
}

// BenchmarkJournalAppendDirFS: the same ladder against a real
// directory, where each commit pays an actual fsync — the number that
// justifies the group-commit default in docs/serving.md.
func BenchmarkJournalAppendDirFS(b *testing.B) {
	for _, group := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("group%d", group), func(b *testing.B) {
			fs, err := NewDirFS(b.TempDir() + "/journal")
			if err != nil {
				b.Fatal(err)
			}
			benchCommitter(b, fs, group)
		})
	}
}
