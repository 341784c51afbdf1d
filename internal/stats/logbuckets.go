package stats

import (
	"fmt"
	"math"
)

// The one log-bucket scheme, shared by Sketch and the obs histograms:
// logBuckets buckets spanning (BucketLo, BucketHi] with BucketsPerDecade
// buckets per decade, plus an underflow bucket for values <= BucketLo
// (zero and negatives included) and an overflow bucket for values above
// BucketHi. Simulated efficiencies live in (0, 1] and times in minutes,
// so the range covers sub-microsecond phases through multi-century wall
// times. Each bucket spans a factor of 10^(1/8) ≈ 1.334, a relative
// width of about 33 %.
const (
	BucketLo         = 1e-9
	BucketHi         = 1e12
	BucketsPerDecade = 8
)

// logBuckets is the number of log buckets, 168, worked out from the
// constants.
var logBuckets = int(math.Ceil(float64(math.Log10(BucketHi/BucketLo)*BucketsPerDecade) - 1e-9))

// bucketIndex maps a finite value into [0, logBuckets+1].
func bucketIndex(v float64) int {
	if v <= BucketLo {
		return 0
	}
	if v > BucketHi {
		return logBuckets + 1
	}
	// v > BucketLo makes v/BucketLo at least 1, so the index is at
	// least 1; at the top, rounding can reach logBuckets+1.
	return min(1+int(math.Floor(math.Log10(v/BucketLo)*BucketsPerDecade)), logBuckets)
}

// UpperBound returns the upper bound of bucket i in [0, logBuckets+1]:
// BucketLo for the underflow bucket and +Inf for the overflow bucket.
func UpperBound(i int) float64 {
	switch {
	case i <= 0:
		return BucketLo
	case i > logBuckets:
		return math.Inf(1)
	default:
		return BucketLo * math.Pow(10, float64(i)/BucketsPerDecade)
	}
}

// Bucket is one non-empty bucket: its index in the scheme (0 =
// underflow, 169 = overflow) and its count.
type Bucket struct {
	I int    `json:"i"`
	C uint64 `json:"c"`
}

// LogBuckets holds the bucket counts of the log-bucket scheme and
// estimates quantiles from them. Its owner rejects non-finite values and
// keeps the count, min and max that Quantile reads. The zero value is
// empty; the counts are allocated on the first value. Not safe for
// concurrent use.
type LogBuckets struct {
	counts []uint64 // len logBuckets+2 once allocated: [under, b1..b168, over]
}

// Add counts one finite value.
func (b *LogBuckets) Add(v float64) {
	if b.counts == nil {
		b.alloc()
	}
	b.counts[bucketIndex(v)]++
}

func (b *LogBuckets) alloc() { b.counts = make([]uint64, logBuckets+2) }

// Merge adds o's counts into b.
func (b *LogBuckets) Merge(o *LogBuckets) {
	if o.counts == nil || o == b {
		return
	}
	if b.counts == nil {
		b.alloc()
	}
	for i, c := range o.counts {
		b.counts[i] += c
	}
}

// Reset zeroes the counts, keeping their allocation.
func (b *LogBuckets) Reset() { clear(b.counts) }

// Sparse returns the non-empty buckets in index order.
func (b *LogBuckets) Sparse() []Bucket {
	var out []Bucket
	for i, c := range b.counts {
		if c != 0 {
			out = append(out, Bucket{I: i, C: c})
		}
	}
	return out
}

// Restore replaces b's counts with the sparse buckets bs, which must lie
// in the scheme and hold n values in all.
func (b *LogBuckets) Restore(bs []Bucket, n uint64) error {
	b.counts = nil
	if len(bs) == 0 {
		if n != 0 {
			return fmt.Errorf("stats: %d values but no buckets", n)
		}
		return nil
	}
	b.alloc()
	var total uint64
	for _, bk := range bs {
		if bk.I < 0 || bk.I >= len(b.counts) {
			return fmt.Errorf("stats: bucket index %d outside [0,%d]", bk.I, len(b.counts)-1)
		}
		b.counts[bk.I] += bk.C
		total += bk.C
	}
	if total != n {
		return fmt.Errorf("stats: bucket counts sum to %d, want %d", total, n)
	}
	return nil
}

// Quantile estimates the q-quantile (q in [0,1]) of the n counted values
// by geometric interpolation within the containing bucket, clamped to
// their exact range [lo, hi]; estimates are non-decreasing in q. It
// returns NaN when n is 0 or q is NaN.
func (b *LogBuckets) Quantile(q float64, n uint64, lo, hi float64) float64 {
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	target := q * float64(n)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range b.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			v := interp(i, (target-cum)/float64(c), hi)
			// Bucket bounds are coarser than the exact extremes.
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return v
		}
		cum = next
	}
	return hi
}

// interp interpolates a value at fraction frac within bucket i; hi is
// the largest counted value.
func interp(i int, frac float64, hi float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch {
	case i == 0:
		// The underflow bucket has no lower bound; report its upper
		// bound (the clamp pulls it to the minimum when appropriate).
		return BucketLo
	case i > logBuckets:
		// The overflow bucket is unbounded above; report the maximum.
		return hi
	default:
		lower, upper := UpperBound(i-1), UpperBound(i)
		return lower * math.Pow(upper/lower, frac)
	}
}
