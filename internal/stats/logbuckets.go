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

// bucketSteps is the bucket index's contract: bucketSteps[j] is the
// float64 bit pattern of the smallest value in bucket j+2, that is, where
// 1+⌊8·log10(v/BucketLo)⌋ (clamped to logBuckets) steps up. It was
// generated on amd64 from that math.Log10 expression, which the index
// computed until the table replaced it; TestBucketStepsMatchLog10
// regenerates it there. Every GOARCH indexes by the table, so the index
// does not depend on a platform's math.Log10. The steps sit from 50 ulps
// below to 21 ulps above UpperBound's values, which come from math.Pow,
// so a value equal to a bound may index one bucket up.
var bucketSteps = [...]uint64{
	0x3e16e8e3a7ffb1a4, 0x3e1e8cf49f422411, 0x3e245eb4b796edfa, 0x3e2b29ec0fbe4534,
	0x3e321c9a2283409d, 0x3e3827021d36920b, 0x3e401a964689901d, 0x3e45798ee2308c3a,
	0x3e4ca31c91ff9e09, 0x3e531818e389568a, 0x3e597661e57ca979, 0x3e60fa3389d6eb40,
	0x3e66a3c0ab2410c3, 0x3e6e30c2a484368c, 0x3e74213bd82bf427, 0x3e7ad7f29abcaf49,
	0x3e81e5f1db3fc2c6, 0x3e87de1f1c6bac29, 0x3e8fd3fa5edbd3d8, 0x3e9538c06c4ca60f,
	0x3e9c4cb0d5ed14f1, 0x3ea2de79a6d2a218, 0x3ea9298ace36f12c, 0x3eb0c6f7a0b5ed8b,
	0x3eb65f6e520fb378, 0x3ebdd5a6e3869735, 0x3ec3e47c7b496463, 0x3eca86f0875fcf91,
	0x3ed1afee85b42d1a, 0x3ed7961810874aa4, 0x3edf73ed81c4ad76, 0x3ee4f8b588e368f1,
	0x3eebf749e693a04e, 0x3ef2a5884e341e80, 0x3ef8dd9b9a1bbd80, 0x3f009456549be1b8,
	0x3f061bea2721385c, 0x3f0d7b9e14a91d47, 0x3f13a874711aec65, 0x3f1a36e2eb1c4329,
	0x3f217a8e301c4436, 0x3f274eea61c1261b, 0x3f2f150280a2acda, 0x3f34b96be9c2da2c,
	0x3f3ba2e4b0e9866d, 0x3f426d42cce9b248, 0x3f4892918d61a787, 0x3f50624dd2f1a9f7,
	0x3f55d931bc235540, 0x3f5d22a4fa316fab, 0x3f636d219065ac05, 0x3f69e7c6e43390b2,
	0x3f7145ceee91f40a, 0x3f77089380241ed6, 0x3f7eb735f0ba1162, 0x3f847ae147ae1475,
	0x3f8b4f7e2b2c2a84, 0x3f9235a71c5ee5cd, 0x3f984869f47f1707, 0x3fa030dc4ea03a78,
	0x3fa59742aa36710f, 0x3faccab8602d268e, 0x3fb33281b6744ae8, 0x3fb999999999999a,
	0x3fc111aedafb9a98, 0x3fc6c310e3769f30, 0x3fce5a84719edcd3, 0x3fd43d1362484909,
	0x3fdafd1354c40d3f, 0x3fe1feb33c1c381f, 0x3fe7ff2224115d92, 0x3fefffffffffffeb,
	0x3ff5561a91ba8144, 0x3ffc73d51c544705, 0x4002f892c70349f7, 0x40094c583ada5b52,
	0x4010de2c14fa884d, 0x40167e600b234616, 0x401dfeeaad15b4ff, 0x4023fffffffffff9,
	0x402aaba136292183, 0x4031c86531b4ac68, 0x4037b6b778c41c7b, 0x403f9f6e4990f211,
	0x404515b71a392a66, 0x404c1df80dec17a4, 0x4052bf52ac2d9113, 0x4058fffffffffffe,
	0x4060ab44c1d9b4f7, 0x40663a7e7e21d773, 0x406da46556f523a4, 0x4073c3a4edfa9751,
	0x407a5b24e0c774ee, 0x408192bb08b38ecd, 0x40876f275738f55f, 0x408f3fffffffffe9,
	0x4094d615f250223c, 0x409bc91e1daa4d59, 0x40a286bf5659363a, 0x40a8b48e29793d2d,
	0x40b078f70c7ca91a, 0x40b5f769cae07270, 0x40bd4af12d0732c0, 0x40c387fffffffff8,
	0x40ca0b9b6ee42ab9, 0x40d15db2d28a705d, 0x40d7286f2bef83cf, 0x40dee1b1b3d78c63,
	0x40e49734cf9bd367, 0x40eb75443d988f15, 0x40f24ed6bc247fab, 0x40f869fffffffff1,
	0x41004741254e9ab0, 0x4105b51f872d0c5a, 0x410cf28af6eb64db, 0x41134d0f1066b7ce,
	0x4119bd020382c83a, 0x4121294aa67f596a, 0x4126e28c6b2d9f92, 0x412e848000000016,
	0x413459116ea24177, 0x413b226768f84f95, 0x41421796da531efc, 0x41482052d48065b0,
	0x415016214231bd1a, 0x4155739d501f2fe0, 0x415c9b2f85f9079b, 0x416312d000000000,
	0x41696f55ca4ad1c3, 0x4170f580a19b31b1, 0x41769d7c90e7e6ac, 0x417e286789a07f07,
	0x41841ba992be2c53, 0x418ad084a426fbc6, 0x4191e0fdb3bba4b5, 0x4197d783fffffff0,
	0x419fcb2b3cdd861e, 0x41a532e0ca01fe0f, 0x41ac44dbb521e043, 0x41b2d940b6044f7d,
	0x41b92293f76db788, 0x41c0c252e6985d50, 0x41c6593d20aa8dd2, 0x41cdcd64ffffffd8,
	0x41d3defb060a73c5, 0x41da7f98fc827db5, 0x41e1ab0951352c41, 0x41e78f90e385634c,
	0x41ef6b38f5492554, 0x41f4f2e7a03e7496, 0x41fbef8c68d53134, 0x4202a05f1fffffff,
	0x4208d6b9c78d10d6, 0x42108fbf9dd18e86, 0x421615cba5827742, 0x421d73751c66bc0b,
	0x4223a303994db748, 0x422a2fa1884e11de, 0x423175b7c1853ed7, 0x42374876e7ffffef,
	0x423f0c68397054f7, 0x4244b3af8545f219, 0x424b9b3e8ee31500, 0x4252682931c0359f,
	0x42588bc47fa12539, 0x42605dc4f530cb20, 0x4265d325b1e68e7f,
}

// logBuckets is the number of log buckets, 168: one more than the steps
// between them.
const logBuckets = len(bucketSteps) + 1

// quarterShift keeps a float64's sign, exponent and top two mantissa
// bits: its quarter-binade. A quarter-binade spans a factor of
// 2^(1/4) ≈ 1.19, less than a bucket's 10^(1/8) ≈ 1.33, so at most one
// step falls inside one.
const quarterShift = 52 - 2

// quarterLo is the quarter-binade of BucketLo, and quarters[q] describes
// quarter-binade quarterLo+q, up to BucketHi's: base is the bucket of its
// first value above BucketLo, and step the first step above that value,
// or MaxUint64 when there is none. init builds it from bucketSteps with
// integer work only.
var (
	quarterLo = math.Float64bits(BucketLo) >> quarterShift
	quarters  = make([]struct {
		step uint64
		base int
	}, math.Float64bits(BucketHi)>>quarterShift-quarterLo+1)
)

func init() {
	j := 0 // the steps at or below the quarter-binade's first value
	for q := range quarters {
		first := (quarterLo + uint64(q)) << quarterShift
		for j < len(bucketSteps) && bucketSteps[j] <= first {
			j++
		}
		quarters[q].base, quarters[q].step = 1+j, math.MaxUint64
		if j < len(bucketSteps) {
			quarters[q].step = bucketSteps[j]
		}
	}
}

// bucketIndex maps a finite value into [0, logBuckets+1]: the number of
// steps at or below it, plus one, inside (BucketLo, BucketHi]. A value
// in that range is positive, so its bit pattern orders like the value.
func bucketIndex(v float64) int {
	if v <= BucketLo {
		return 0
	}
	if v > BucketHi {
		return logBuckets + 1
	}
	u := math.Float64bits(v)
	q := &quarters[u>>quarterShift-quarterLo]
	if u >= q.step {
		return q.base + 1
	}
	return q.base
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
	// counts[lo:hi] is the touched range: every non-zero count lies in
	// it, so Merge, Reset, Sparse and Quantile walk only those buckets.
	// lo >= hi when it is empty.
	lo, hi int
}

// Add counts one finite value.
func (b *LogBuckets) Add(v float64) {
	if b.counts == nil {
		b.alloc()
	}
	i := bucketIndex(v)
	b.counts[i]++
	b.touch(i, i+1)
}

func (b *LogBuckets) alloc() {
	b.counts = make([]uint64, logBuckets+2)
	b.lo, b.hi = len(b.counts), 0
}

// touch widens the touched range to cover [lo, hi).
func (b *LogBuckets) touch(lo, hi int) {
	b.lo, b.hi = min(b.lo, lo), max(b.hi, hi)
}

// Merge adds o's counts into b.
func (b *LogBuckets) Merge(o *LogBuckets) {
	if o.lo >= o.hi || o == b {
		return
	}
	if b.counts == nil {
		b.alloc()
	}
	src := o.counts[o.lo:o.hi]
	dst := b.counts[o.lo:o.hi]
	for i, c := range src {
		dst[i] += c
	}
	b.touch(o.lo, o.hi)
}

// Reset zeroes the counts, keeping their allocation.
func (b *LogBuckets) Reset() {
	if b.lo < b.hi {
		clear(b.counts[b.lo:b.hi])
	}
	b.lo, b.hi = len(b.counts), 0
}

// Sparse returns the non-empty buckets in index order.
func (b *LogBuckets) Sparse() []Bucket {
	var out []Bucket
	for i := b.lo; i < b.hi; i++ {
		if c := b.counts[i]; c != 0 {
			out = append(out, Bucket{I: i, C: c})
		}
	}
	return out
}

// Restore replaces b's counts with the sparse buckets bs, which must lie
// in the scheme and hold n values in all.
func (b *LogBuckets) Restore(bs []Bucket, n uint64) error {
	*b = LogBuckets{}
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
		if total+bk.C < total {
			return fmt.Errorf("stats: bucket counts overflow")
		}
		b.counts[bk.I] += bk.C
		total += bk.C
		b.touch(bk.I, bk.I+1)
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
	for i := b.lo; i < b.hi; i++ {
		c := b.counts[i]
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
