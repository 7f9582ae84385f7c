package blocking

import (
	"fmt"
	"math/rand"
	"testing"

	"acd/internal/dataset"
	"acd/internal/obs"
	"acd/internal/record"
)

// benchRecords builds a synthetic workload shaped like a deduplication
// input: groups of near-duplicate records drawn from a shared vocabulary
// (so the join finds real pairs), plus singleton noise.
func benchRecords(n int) []record.Record {
	rng := rand.New(rand.NewSource(42))
	vocabSize := n / 2
	recs := make([]record.Record, 0, n)
	id := 0
	for id < n {
		// One entity: a base description plus 1-3 noisy copies.
		base := make([]string, 5+rng.Intn(8))
		for i := range base {
			base[i] = fmt.Sprintf("tok%d", rng.Intn(vocabSize))
		}
		copies := 1 + rng.Intn(3)
		for c := 0; c < copies && id < n; c++ {
			words := append([]string(nil), base...)
			if c > 0 { // perturb duplicates: drop one token, add one
				words[rng.Intn(len(words))] = fmt.Sprintf("tok%d", rng.Intn(vocabSize))
			}
			text := ""
			for _, w := range words {
				text += w + " "
			}
			recs = append(recs, record.New(record.ID(id), map[string]string{"t": text}))
			id++
		}
	}
	return recs
}

// BenchmarkJaccardJoin isolates the indexed join on the two dataset
// shapes the repository benchmark's batch-dedup workload draws: sparse10k
// (10 000 records over 3 600 skewed entities — many small clusters, and
// four near-ubiquitous tokens in every record) and dense1500 (1 500
// records over 10 even entities — a few large clusters, most candidates
// true pairs). Each runs with one worker and with two. Besides ns/op it
// reports ns/record and verified/emitted, the funnel ratio
// TestJoinFunnelBound pins.
func BenchmarkJaccardJoin(b *testing.B) {
	for _, shape := range []struct {
		name string
		cfg  dataset.SyntheticConfig
	}{
		{"sparse10k", dataset.SyntheticConfig{Records: 10000, Entities: 3600, Skew: 0.6, Seed: 1}},
		{"dense1500", dataset.SyntheticConfig{Records: 1500, Entities: 10, Seed: 1}},
	} {
		d, err := dataset.Synthetic(shape.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers%d", shape.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				rec := obs.New()
				for i := 0; i < b.N; i++ {
					benchPairs += len(JaccardJoinParallelObs(d.Records, 0.3, workers, rec))
				}
				counters := rec.Snapshot().Counters
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(d.Records)), "ns/record")
				b.ReportMetric(float64(counters[MetricPairsVerified])/float64(counters[MetricPairsEmitted]), "verified/emitted")
			})
		}
	}
}

// BenchmarkNaiveJoinParallel measures the parallel all-pairs scan on a
// smaller workload (the scan is quadratic).
func BenchmarkNaiveJoinParallel(b *testing.B) {
	recs := benchRecords(1200)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = NaiveJoin(recs, nil, 0.3)
		}
	})
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("par%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = NaiveJoinParallel(recs, nil, 0.3, p)
			}
		})
	}
}
