package histogram

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// This file extends the package beyond the paper's equi-depth
// machine→crowd score histogram with an HDR-style latency histogram for
// the serving layer: log-linear buckets with bounded relative error,
// lock-free atomic recording, and percentile queries.

const (
	// latSubBits sets the per-octave resolution: 2^latSubBits
	// sub-buckets per power of two, so a bucket midpoint is within
	// 1/2^latSubBits of any value it absorbs (~1.6% at 6 bits).
	latSubBits = 6
	// latSubCount is the number of exact buckets at the bottom of the
	// range (values 0..latSubCount-1 are recorded exactly).
	latSubCount = 1 << latSubBits
	// latHalf is the sub-bucket count per octave above the exact range.
	latHalf = latSubCount / 2
	// latMaxShift bounds the octave index for any int64 value.
	latMaxShift = 64 - latSubBits
	// latBuckets is the total bucket count covering all of int64.
	latBuckets = latSubCount + latMaxShift*latHalf
)

// Latency is a race-safe HDR-style histogram of durations. Recording is
// a single atomic add into a log-linear bucket (values below 64ns are
// exact; above that, relative error is bounded by 2^-6 ≈ 1.6%), so many
// goroutines can Observe concurrently with no lock and no allocation.
// Quantile queries walk an atomic snapshot of the buckets.
//
// The zero value is NOT ready to use; call NewLatency.
type Latency struct {
	counts [latBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64
}

// NewLatency returns an empty latency histogram.
func NewLatency() *Latency {
	l := &Latency{}
	l.min.Store(math.MaxInt64)
	return l
}

// latIndex maps a non-negative value to its bucket.
func latIndex(v int64) int {
	if v < latSubCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - latSubBits // ≥ 1
	return shift*latHalf + int(v>>uint(shift))  // v>>shift ∈ [latHalf, latSubCount)
}

// latBound returns the inclusive lower bound and width of a bucket.
func latBound(idx int) (lo, width int64) {
	if idx < latSubCount {
		return int64(idx), 1
	}
	shift := idx/latHalf - 1
	mant := int64(idx - shift*latHalf) // ∈ [latHalf, latSubCount)
	return mant << uint(shift), 1 << uint(shift)
}

// Observe records one duration. Negative durations count as zero.
func (l *Latency) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	l.counts[latIndex(v)].Add(1)
	l.count.Add(1)
	l.sum.Add(v)
	for {
		cur := l.max.Load()
		if v <= cur || l.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := l.min.Load()
		if v >= cur || l.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (l *Latency) Count() int64 { return l.count.Load() }

// Mean returns the mean observed duration (0 when empty).
func (l *Latency) Mean() time.Duration {
	n := l.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(l.sum.Load() / n)
}

// Max returns the largest observed duration (0 when empty).
func (l *Latency) Max() time.Duration {
	if l.count.Load() == 0 {
		return 0
	}
	return time.Duration(l.max.Load())
}

// Min returns the smallest observed duration (0 when empty).
func (l *Latency) Min() time.Duration {
	if l.count.Load() == 0 {
		return 0
	}
	return time.Duration(l.min.Load())
}

// Quantile returns the q-quantile (q in [0,1]; q=0.5 is the median) as
// the midpoint of the bucket holding that rank, clamped to the observed
// min/max. Concurrent Observes during the query shift the answer by at
// most the in-flight observations; the result is always a value the
// histogram could legally report. Empty histograms return 0.
func (l *Latency) Quantile(q float64) time.Duration {
	// Snapshot bucket counts first and derive the total from the
	// snapshot, so the walk is internally consistent even under
	// concurrent writers.
	var snap [latBuckets]int64
	var total int64
	for i := range l.counts {
		c := l.counts[i].Load()
		snap[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return l.Min()
	}
	if q >= 1 {
		return l.Max()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range snap {
		cum += c
		if cum >= rank {
			lo, width := latBound(i)
			v := lo + width/2
			if mx := l.max.Load(); v > mx {
				v = mx
			}
			if mn := l.min.Load(); v < mn {
				v = mn
			}
			return time.Duration(v)
		}
	}
	return l.Max() // unreachable: cum == total ≥ rank by the clamps above
}

// Merge adds every observation of o into l. o is read atomically but
// not frozen: merging while o is being written captures some prefix of
// the concurrent observations.
func (l *Latency) Merge(o *Latency) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			l.counts[i].Add(c)
		}
	}
	l.count.Add(o.count.Load())
	l.sum.Add(o.sum.Load())
	for {
		cur, ov := l.max.Load(), o.max.Load()
		if ov <= cur || l.max.CompareAndSwap(cur, ov) {
			break
		}
	}
	if o.count.Load() > 0 {
		for {
			cur, ov := l.min.Load(), o.min.Load()
			if ov >= cur || l.min.CompareAndSwap(cur, ov) {
				break
			}
		}
	}
}
