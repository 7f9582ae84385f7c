package histogram

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// oracleQuantile is the brute-force reference: the ceil(q*n)-th order
// statistic of the sorted samples.
func oracleQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestLatencyQuantileOracle checks every reported percentile against
// the sorted-slice oracle within the histogram's documented relative
// error bound, across several latency distributions.
func TestLatencyQuantileOracle(t *testing.T) {
	distributions := map[string]func(r *rand.Rand) time.Duration{
		"uniform": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(50 * time.Millisecond)))
		},
		"lognormal": func(r *rand.Rand) time.Duration {
			return time.Duration(math.Exp(r.NormFloat64()*1.5 + 13) /*~0.4ms median*/)
		},
		"bimodal": func(r *rand.Rand) time.Duration {
			if r.Float64() < 0.95 {
				return time.Duration(1+r.Int63n(2_000_000)) * time.Nanosecond
			}
			return time.Duration(100+r.Int63n(400)) * time.Millisecond
		},
		"tiny": func(r *rand.Rand) time.Duration { // exact-bucket range
			return time.Duration(r.Int63n(64))
		},
	}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			l := NewLatency()
			samples := make([]time.Duration, 20000)
			for i := range samples {
				samples[i] = draw(r)
				l.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			if l.Count() != int64(len(samples)) {
				t.Fatalf("Count = %d, want %d", l.Count(), len(samples))
			}
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
				got, want := l.Quantile(q), oracleQuantile(samples, q)
				// The bucket midpoint is within 2^-6 of any absorbed
				// value; allow a little extra for the rank falling next
				// to a bucket boundary.
				tol := time.Duration(float64(want)*3/latSubCount) + 1
				if got < want-tol || got > want+tol {
					t.Errorf("q=%v: got %v, oracle %v (tol %v)", q, got, want, tol)
				}
			}
			if got, want := l.Min(), samples[0]; got != want {
				t.Errorf("Min = %v, want %v", got, want)
			}
			if got, want := l.Max(), samples[len(samples)-1]; got != want {
				t.Errorf("Max = %v, want %v", got, want)
			}
			mean := l.Mean()
			var sum float64
			for _, s := range samples {
				sum += float64(s)
			}
			want := time.Duration(sum / float64(len(samples)))
			if diff := mean - want; diff < -time.Microsecond || diff > time.Microsecond {
				t.Errorf("Mean = %v, oracle %v", mean, want)
			}
		})
	}
}

// TestLatencyBucketsInvertible: every bucket index maps back to a range
// that contains exactly the values mapping to it, and indices are
// monotone in the value.
func TestLatencyBucketsInvertible(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := latIndex(v)
		if idx < prev {
			// indices for increasing probe values must not decrease
			t.Errorf("latIndex(%d) = %d, not monotone (prev %d)", v, idx, prev)
		}
		prev = idx
		lo, width := latBound(idx)
		// lo+width can overflow for the topmost bucket; compare unsigned.
		if v < lo || uint64(v-lo) >= uint64(width) {
			t.Errorf("value %d landed in bucket %d = [%d, +%d)", v, idx, lo, width)
		}
	}
	if latIndex(math.MaxInt64) >= latBuckets {
		t.Fatalf("MaxInt64 bucket %d out of range %d", latIndex(math.MaxInt64), latBuckets)
	}
}

// TestLatencyEmpty: an empty histogram answers zero everywhere.
func TestLatencyEmpty(t *testing.T) {
	l := NewLatency()
	if l.Count() != 0 || l.Quantile(0.5) != 0 || l.Mean() != 0 || l.Max() != 0 || l.Min() != 0 {
		t.Errorf("empty histogram not all-zero: count=%d p50=%v mean=%v max=%v min=%v",
			l.Count(), l.Quantile(0.5), l.Mean(), l.Max(), l.Min())
	}
}

// TestLatencyConcurrent hammers one histogram from many goroutines
// (run under -race in CI) and checks nothing is lost.
func TestLatencyConcurrent(t *testing.T) {
	l := NewLatency()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				l.Observe(time.Duration(r.Int63n(int64(time.Second))))
				if i%100 == 0 {
					l.Quantile(0.99) // concurrent reads must be safe
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Count() != workers*per {
		t.Errorf("Count = %d, want %d", l.Count(), workers*per)
	}
	if p50 := l.Quantile(0.5); p50 < 400*time.Millisecond || p50 > 600*time.Millisecond {
		t.Errorf("uniform p50 = %v, want ≈500ms", p50)
	}
}

// TestLatencyMerge: merging two histograms equals observing the union.
func TestLatencyMerge(t *testing.T) {
	a, b, both := NewLatency(), NewLatency(), NewLatency()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		d := time.Duration(r.Int63n(int64(10 * time.Millisecond)))
		both.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), both.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("q=%v: merged %v, direct %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	if a.Min() != both.Min() || a.Max() != both.Max() || a.Mean() != both.Mean() {
		t.Errorf("merged min/max/mean %v/%v/%v, direct %v/%v/%v",
			a.Min(), a.Max(), a.Mean(), both.Min(), both.Max(), both.Mean())
	}
	// Merging an empty histogram must not disturb min.
	a.Merge(NewLatency())
	if a.Min() != both.Min() {
		t.Errorf("merge of empty changed min to %v", a.Min())
	}
}
