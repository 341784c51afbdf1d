package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Sketch is a mergeable streaming summary: exact moments and min/max,
// held in a Sample, plus the fixed log-bucket histogram (LogBuckets)
// for quantile estimates. It is the constant-memory stand-in for a full
// sample slice — Summary() is exact in N/Mean/Std/Min/Max, Quantile()
// is bucket-interpolated (relative error bounded by the bucket width, a
// factor of 10^(1/8) ≈ 1.334; interpolation does much better on smooth
// data).
//
// Determinism: Observe folds with Sample.Add (Welford's update) and
// Merge with Sample.Merge (the Chan et al. pairwise update), so a
// reduction that always folds the same observation sequences in the
// same order — e.g. the campaign runner's fixed trial-block partition
// merged in ascending block order — produces bitwise-identical state
// regardless of how the work was scheduled. Not safe for concurrent
// use.
type Sketch struct {
	b        LogBuckets
	rejected uint64
	m        Sample // the accepted values' moments and min/max
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// Observe records one value. NaN and ±Inf are rejected (counted in
// Rejected, excluded from every statistic).
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.rejected++
		return
	}
	s.b.Add(v)
	s.m.Add(v)
}

// N returns the number of accepted values.
func (s *Sketch) N() int64 { return int64(s.m.n) }

// Rejected returns the number of rejected (non-finite) values.
func (s *Sketch) Rejected() uint64 { return s.rejected }

// Mean returns the mean of the accepted values (0 when empty).
func (s *Sketch) Mean() float64 { return s.m.mean }

// Min returns the smallest accepted value (0 when empty).
func (s *Sketch) Min() float64 { return s.m.min }

// Max returns the largest accepted value (0 when empty).
func (s *Sketch) Max() float64 { return s.m.max }

// Std returns the unbiased sample standard deviation (0 for fewer than
// two values).
func (s *Sketch) Std() float64 { return s.m.Std() }

// CI returns the half-width of the two-sided confidence interval of the
// accepted values' mean at the given level (see Sample.CI).
func (s *Sketch) CI(level float64) (float64, error) { return s.m.CI(level) }

// Summary snapshots the sketch's exact moments as a Summary — the
// sketch-backed replacement for Summarize over a full slice.
func (s *Sketch) Summary() Summary { return Summarize(&s.m) }

// Merge folds o into s (o is unchanged; merging a sketch into itself is
// a no-op). Every sketch shares the one bucket scheme, so the error is
// always nil.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o == s {
		return nil
	}
	s.rejected += o.rejected
	if o.m.n == 0 {
		return nil
	}
	s.b.Merge(&o.b)
	s.m.Merge(&o.m)
	return nil
}

// Reset returns the sketch to its empty state, keeping the bucket
// allocation (shard-pool reuse).
func (s *Sketch) Reset() {
	s.b.Reset()
	s.rejected, s.m = 0, Sample{}
}

// Quantile estimates the q-quantile (q in [0,1]) by geometric
// interpolation within the containing bucket, clamped to the exact
// [Min, Max] range; estimates are non-decreasing in q. Returns NaN when
// the sketch is empty or q is NaN.
func (s *Sketch) Quantile(q float64) float64 {
	return s.b.Quantile(q, uint64(s.m.n), s.m.min, s.m.max)
}

// sketchJSON is the serialized sketch state. Moments are carried as
// IEEE-754 bit patterns so a save/load round trip is bitwise exact —
// the property campaign checkpoint resume relies on (decimal float
// formatting would round). The scheme fields always hold the constants.
type sketchJSON struct {
	Lo        float64  `json:"lo"`
	Hi        float64  `json:"hi"`
	PerDecade int      `json:"per_decade"`
	N         int64    `json:"n"`
	Rejected  uint64   `json:"rejected,omitempty"`
	MeanBits  uint64   `json:"mean_bits"`
	M2Bits    uint64   `json:"m2_bits"`
	MinBits   uint64   `json:"min_bits"`
	MaxBits   uint64   `json:"max_bits"`
	Buckets   []Bucket `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler (sparse buckets, bit-exact
// moments).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(sketchJSON{
		Lo: BucketLo, Hi: BucketHi, PerDecade: BucketsPerDecade,
		N: int64(s.m.n), Rejected: s.rejected,
		MeanBits: math.Float64bits(s.m.mean), M2Bits: math.Float64bits(s.m.m2),
		MinBits: math.Float64bits(s.m.min), MaxBits: math.Float64bits(s.m.max),
		Buckets: s.b.Sparse(),
	})
}

// UnmarshalJSON implements json.Unmarshaler. A state that Observe and
// Merge cannot produce is an error: another bucket scheme, buckets that
// do not hold its n values, a NaN moment, an infinite mean, min or max,
// a negative m2, min above max, or an empty sketch with a non-zero
// moment. So a corrupt checkpoint fails to load instead of resuming into
// NaN summaries.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var in sketchJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Lo != BucketLo || in.Hi != BucketHi || in.PerDecade != BucketsPerDecade {
		return fmt.Errorf("stats: sketch scheme (%g,%g,%d), want (%g,%g,%d)",
			in.Lo, in.Hi, in.PerDecade, BucketLo, BucketHi, BucketsPerDecade)
	}
	if in.N < 0 {
		return fmt.Errorf("stats: sketch has n=%d", in.N)
	}
	m, err := in.moments()
	if err != nil {
		return err
	}
	var b LogBuckets
	if err := b.Restore(in.Buckets, uint64(in.N)); err != nil {
		return fmt.Errorf("stats: sketch: %w", err)
	}
	*s = Sketch{b: b, rejected: in.Rejected, m: m}
	return nil
}

// moments decodes the state's moments, rejecting what Add and Merge
// cannot produce.
func (in *sketchJSON) moments() (Sample, error) {
	m := Sample{n: int(in.N),
		mean: math.Float64frombits(in.MeanBits), m2: math.Float64frombits(in.M2Bits),
		min: math.Float64frombits(in.MinBits), max: math.Float64frombits(in.MaxBits)}
	if m.n == 0 {
		// Bits, not values: a -0 would not survive a merge.
		if in.MeanBits|in.M2Bits|in.MinBits|in.MaxBits != 0 {
			return Sample{}, fmt.Errorf("stats: sketch has n=0 but non-zero moments")
		}
		return m, nil
	}
	switch {
	case math.IsNaN(m.mean) || math.IsNaN(m.m2) || math.IsNaN(m.min) || math.IsNaN(m.max):
		return Sample{}, fmt.Errorf("stats: sketch has a NaN moment (mean %g, m2 %g, min %g, max %g)", m.mean, m.m2, m.min, m.max)
	case math.IsInf(m.mean, 0) || math.IsInf(m.min, 0) || math.IsInf(m.max, 0):
		return Sample{}, fmt.Errorf("stats: sketch has an infinite mean, min or max (%g, %g, %g)", m.mean, m.min, m.max)
	case m.m2 < 0:
		return Sample{}, fmt.Errorf("stats: sketch has a negative m2 %g", m.m2)
	case m.min > m.max:
		return Sample{}, fmt.Errorf("stats: sketch has min %g above max %g", m.min, m.max)
	}
	return m, nil
}
