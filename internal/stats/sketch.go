package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Default sketch bucket scheme: log-scaled buckets spanning (1e-9, 1e12]
// with 8 buckets per decade, plus an underflow bucket for values <= lo
// (including zero and negatives) and an overflow bucket for values > hi.
// Simulated efficiencies live in (0, 1] and wall times in minutes, so
// the range covers both with ~2.9 % relative bucket width.
const (
	sketchDefaultLo        = 1e-9
	sketchDefaultHi        = 1e12
	sketchDefaultPerDecade = 8
)

// Sketch is a mergeable streaming summary: exact moments and min/max,
// held in a Sample, plus a fixed log-bucket histogram for quantile
// estimates. It is the constant-memory stand-in for a full sample slice
// — Summary() is exact in N/Mean/Std/Min/Max, Quantile() is
// bucket-interpolated (relative error bounded by the bucket width,
// ~±1.5 % with the default scheme).
//
// Determinism: Observe folds with Sample.Add (Welford's update) and
// Merge with Sample.Merge (the Chan et al. pairwise update), so a
// reduction that always folds the same observation sequences in the
// same order — e.g. the campaign runner's fixed trial-block partition
// merged in ascending block order — produces bitwise-identical state
// regardless of how the work was scheduled. Not safe for concurrent
// use.
type Sketch struct {
	lo        float64
	hi        float64
	perDecade int
	nb        int // log buckets, excluding under/overflow

	counts   []uint64 // len nb+2 once allocated: [under, b1..bnb, over]
	rejected uint64
	m        Sample // the accepted values' moments and min/max
}

// NewSketch returns a sketch with the default bucket scheme.
func NewSketch() *Sketch {
	s, err := NewSketchScheme(sketchDefaultLo, sketchDefaultHi, sketchDefaultPerDecade)
	if err != nil {
		panic(err) // defaults are statically valid
	}
	return s
}

// NewSketchScheme returns a sketch with log-scaled buckets of perDecade
// buckets per decade spanning (lo, hi].
func NewSketchScheme(lo, hi float64, perDecade int) (*Sketch, error) {
	if !(lo > 0) || !(hi > lo) || perDecade < 1 {
		return nil, fmt.Errorf("stats: invalid sketch scheme lo=%v hi=%v perDecade=%d", lo, hi, perDecade)
	}
	nb := int(math.Ceil(float64(math.Log10(hi/lo)*float64(perDecade)) - 1e-9))
	return &Sketch{lo: lo, hi: hi, perDecade: perDecade, nb: nb}, nil
}

// bucketIndex maps a finite value into [0, nb+1].
func (s *Sketch) bucketIndex(v float64) int {
	if v <= s.lo {
		return 0
	}
	if v > s.hi {
		return s.nb + 1
	}
	idx := 1 + int(math.Floor(math.Log10(v/s.lo)*float64(s.perDecade)))
	if idx < 1 {
		idx = 1
	}
	if idx > s.nb {
		idx = s.nb
	}
	return idx
}

// upperBound returns the inclusive upper bound of bucket i in [0, nb+1].
func (s *Sketch) upperBound(i int) float64 {
	switch {
	case i <= 0:
		return s.lo
	case i > s.nb:
		return math.Inf(1)
	default:
		return s.lo * math.Pow(10, float64(i)/float64(s.perDecade))
	}
}

// Observe records one value. NaN and ±Inf are rejected (counted in
// Rejected, excluded from every statistic).
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.rejected++
		return
	}
	if s.counts == nil {
		s.counts = make([]uint64, s.nb+2)
	}
	s.counts[s.bucketIndex(v)]++
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
// a no-op). The two sketches must share the same bucket scheme.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o == s {
		return nil
	}
	if s.lo != o.lo || s.hi != o.hi || s.perDecade != o.perDecade {
		return fmt.Errorf("stats: sketch scheme mismatch: (%g,%g,%d) vs (%g,%g,%d)",
			s.lo, s.hi, s.perDecade, o.lo, o.hi, o.perDecade)
	}
	s.rejected += o.rejected
	if o.m.n == 0 {
		return nil
	}
	if s.counts == nil {
		s.counts = make([]uint64, s.nb+2)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.m.Merge(&o.m)
	return nil
}

// Reset returns the sketch to its empty state, keeping the scheme and
// the bucket allocation (shard-pool reuse).
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.rejected, s.m = 0, Sample{}
}

// Quantile estimates the q-quantile (q in [0,1]) by geometric
// interpolation within the containing bucket, clamped to the exact
// [Min, Max] range; estimates are non-decreasing in q. Returns NaN when
// the sketch is empty or q is NaN.
func (s *Sketch) Quantile(q float64) float64 {
	if s.m.n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return s.m.min
	}
	if q >= 1 {
		return s.m.max
	}
	target := q * float64(s.m.n)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			v := s.interp(i, (target-cum)/float64(c))
			if v < s.m.min {
				v = s.m.min
			}
			if v > s.m.max {
				v = s.m.max
			}
			return v
		}
		cum = next
	}
	return s.m.max
}

// interp interpolates a value at fraction frac within bucket i.
func (s *Sketch) interp(i int, frac float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch {
	case i == 0:
		// Underflow bucket has no lower bound; report its upper bound
		// (the clamp pulls it to min when appropriate).
		return s.lo
	case i > s.nb:
		// Overflow bucket is unbounded above; report the exact max.
		return s.m.max
	default:
		lower := s.upperBound(i - 1)
		upper := s.upperBound(i)
		return lower * math.Pow(upper/lower, frac)
	}
}

// sketchBucket is one non-empty bucket in the serialized form.
type sketchBucket struct {
	I int    `json:"i"`
	C uint64 `json:"c"`
}

// sketchJSON is the serialized sketch state. Moments are carried as
// IEEE-754 bit patterns so a save/load round trip is bitwise exact —
// the property campaign checkpoint resume relies on (decimal float
// formatting would round).
type sketchJSON struct {
	Lo        float64        `json:"lo"`
	Hi        float64        `json:"hi"`
	PerDecade int            `json:"per_decade"`
	N         int64          `json:"n"`
	Rejected  uint64         `json:"rejected,omitempty"`
	MeanBits  uint64         `json:"mean_bits"`
	M2Bits    uint64         `json:"m2_bits"`
	MinBits   uint64         `json:"min_bits"`
	MaxBits   uint64         `json:"max_bits"`
	Buckets   []sketchBucket `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler (sparse buckets, bit-exact
// moments).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	out := sketchJSON{
		Lo: s.lo, Hi: s.hi, PerDecade: s.perDecade,
		N: int64(s.m.n), Rejected: s.rejected,
		MeanBits: math.Float64bits(s.m.mean), M2Bits: math.Float64bits(s.m.m2),
		MinBits: math.Float64bits(s.m.min), MaxBits: math.Float64bits(s.m.max),
	}
	for i, c := range s.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, sketchBucket{I: i, C: c})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var in sketchJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	ns, err := NewSketchScheme(in.Lo, in.Hi, in.PerDecade)
	if err != nil {
		return err
	}
	*s = *ns
	s.rejected = in.Rejected
	s.m = Sample{n: int(in.N),
		mean: math.Float64frombits(in.MeanBits), m2: math.Float64frombits(in.M2Bits),
		min: math.Float64frombits(in.MinBits), max: math.Float64frombits(in.MaxBits)}
	if len(in.Buckets) > 0 {
		s.counts = make([]uint64, s.nb+2)
		var total uint64
		for _, b := range in.Buckets {
			if b.I < 0 || b.I >= len(s.counts) {
				return fmt.Errorf("stats: sketch bucket index %d outside [0,%d]", b.I, len(s.counts)-1)
			}
			s.counts[b.I] = b.C
			total += b.C
		}
		if int64(total) != in.N {
			return fmt.Errorf("stats: sketch bucket counts sum to %d, n is %d", total, in.N)
		}
	} else if in.N != 0 {
		return fmt.Errorf("stats: sketch has n=%d but no buckets", in.N)
	}
	return nil
}
