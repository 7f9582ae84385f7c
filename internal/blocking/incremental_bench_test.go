package blocking

import (
	"testing"
	"time"

	"acd/internal/dataset"
)

// benchPairs keeps the emitted pairs observable.
var benchPairs int

// BenchmarkIncrementalIndexAdd isolates the online blocking index: one
// iteration feeds n dataset.Synthetic records (n/10 entities, the shape
// the repository benchmark's ingest-durable workload draws, whose four
// tN tokens sit in almost every record) into a fresh index. Besides
// ns/op it reports ns/record and growth — mean Add time over the last
// tenth of the records divided by that over the first tenth, the same
// ratio the benchmark's ladder prints as incremental.add_growth — so the
// size-dependence of an Add is one number per size.
func BenchmarkIncrementalIndexAdd(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"4k", 4000}, {"16k", 16000}} {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{Records: size.n, Entities: size.n / 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		texts := make([]string, len(d.Records))
		for i, r := range d.Records {
			texts[i] = r.Text()
		}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			tenth := len(texts) / 10
			var first, last, total time.Duration
			for i := 0; i < b.N; i++ {
				ix := NewIncrementalIndex(0.3)
				start := time.Now()
				var afterFirst, beforeLast time.Time
				for k, s := range texts {
					switch k {
					case tenth:
						afterFirst = time.Now()
					case len(texts) - tenth:
						beforeLast = time.Now()
					}
					benchPairs += len(ix.Add(s))
				}
				end := time.Now()
				first += afterFirst.Sub(start)
				last += end.Sub(beforeLast)
				total += end.Sub(start)
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*len(texts)), "ns/record")
			b.ReportMetric(float64(last)/float64(first), "growth")
		})
	}
}
