package obs

import (
	"math"

	"repro/internal/stats"
)

// Histogram is a streaming histogram over the fixed log-bucket scheme
// of stats.LogBuckets, with exact min/max/mean/stddev and
// bucket-interpolated quantiles. Non-finite observations (NaN, ±Inf) are
// rejected and tallied separately. Not safe for concurrent use; shard
// per goroutine and Merge.
type Histogram struct {
	b        stats.LogBuckets
	count    uint64
	rejected uint64
	// sum and sumSq are exact superaccumulators, so merges are
	// associative: any shard partition of the same samples produces
	// bit-identical Sum/Mean/Std.
	sum   ExactSum
	sumSq ExactSum
	min   float64
	max   float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample. NaN and ±Inf are rejected (counted in
// Rejected, excluded from every statistic).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.rejected++
		return
	}
	h.b.Add(v)
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum.Add(v)
	sq := v * v
	if math.IsInf(sq, 1) {
		// v*v overflows for |v| > ~1.3e154; clamp so the variance path
		// stays finite (it saturates rather than poisoning the sum).
		sq = math.MaxFloat64
	}
	h.sumSq.Add(sq)
}

// Count returns the number of accepted samples.
func (h *Histogram) Count() uint64 { return h.count }

// Rejected returns the number of rejected (non-finite) samples.
func (h *Histogram) Rejected() uint64 { return h.rejected }

// Sum returns the sum of accepted samples (exactly accumulated, rounded
// once on read).
func (h *Histogram) Sum() float64 { return h.sum.Round() }

// Min returns the smallest sample (NaN when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the largest sample (NaN when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.max
}

// Mean returns the sample mean (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum.Round() / float64(h.count)
}

// Std returns the sample standard deviation (NaN when empty, 0 for a
// single sample).
func (h *Histogram) Std() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	if h.count == 1 {
		return 0
	}
	n := float64(h.count)
	mean := h.sum.Round() / n
	// The product is rounded (float64(...)) so that no GOARCH fuses it
	// into the subtraction.
	v := (h.sumSq.Round() - float64(n*mean*mean)) / (n - 1)
	if v < 0 {
		v = 0 // rounding
	}
	return math.Sqrt(v)
}

// Quantile estimates the q-quantile (q in [0,1]) by geometric
// interpolation within the containing bucket, clamped to the exact
// [Min, Max] range; estimates are non-decreasing in q. Returns NaN when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	return h.b.Quantile(q, h.count, h.min, h.max)
}

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h {
		return
	}
	h.rejected += o.rejected
	if o.count == 0 {
		return
	}
	h.b.Merge(&o.b)
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum.Merge(&o.sum)
	h.sumSq.Merge(&o.sumSq)
}

// HistogramBucket is one non-empty bucket in a snapshot: Count samples
// at values <= UpperBound (and above the previous bucket's bound).
// Index is the bucket's position in the scheme (0 = underflow, 169 =
// overflow); the overflow bucket's serialized bound is the observed max.
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
	Index      int     `json:"i"`
}

// HistogramSnapshot is one histogram in a snapshot. P50/P90/P99 hold
// the quantile estimates; Buckets lists only non-empty buckets. The
// scheme fields (Lo, Hi, PerDecade) always hold stats' constants; they
// and the exact sum states are kept so the format stays as readers
// know it.
type HistogramSnapshot struct {
	Name       string            `json:"name"`
	Labels     []Label           `json:"labels,omitempty"`
	Count      uint64            `json:"count"`
	Rejected   uint64            `json:"rejected,omitempty"`
	Sum        float64           `json:"sum"`
	Min        float64           `json:"min"`
	Max        float64           `json:"max"`
	Mean       float64           `json:"mean"`
	Std        float64           `json:"std"`
	P50        float64           `json:"p50"`
	P90        float64           `json:"p90"`
	P99        float64           `json:"p99"`
	Lo         float64           `json:"lo,omitempty"`
	Hi         float64           `json:"hi,omitempty"`
	PerDecade  int               `json:"per_decade,omitempty"`
	SumExact   *ExactSumState    `json:"sum_exact,omitempty"`
	SumSqExact *ExactSumState    `json:"sumsq_exact,omitempty"`
	Buckets    []HistogramBucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot(name string, labels []Label) HistogramSnapshot {
	s := HistogramSnapshot{
		Name: name, Labels: labels,
		Count: h.count, Rejected: h.rejected, Sum: h.sum.Round(),
		Lo: stats.BucketLo, Hi: stats.BucketHi, PerDecade: stats.BucketsPerDecade,
	}
	if h.count > 0 {
		s.Min, s.Max, s.Mean, s.Std = h.min, h.max, h.Mean(), h.Std()
		s.P50, s.P90, s.P99 = h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
		sum, sumSq := h.sum.State(), h.sumSq.State()
		s.SumExact, s.SumSqExact = &sum, &sumSq
	}
	for _, b := range h.b.Sparse() {
		ub := stats.UpperBound(b.I)
		if math.IsInf(ub, 1) {
			ub = h.max // JSON cannot carry +Inf; the exact max bounds the overflow bucket
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: ub, Count: b.C, Index: b.I})
	}
	return s
}
