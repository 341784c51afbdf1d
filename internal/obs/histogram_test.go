package obs

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	for name, v := range map[string]float64{
		"min": h.Min(), "max": h.Max(), "mean": h.Mean(), "std": h.Std(),
		"q0": h.Quantile(0), "q50": h.Quantile(0.5), "q100": h.Quantile(1),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %v, want NaN", name, v)
		}
	}
	if h.Sum() != 0 {
		t.Errorf("empty sum = %v", h.Sum())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(42.5)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 42.5 || h.Max() != 42.5 || h.Mean() != 42.5 {
		t.Errorf("min/max/mean = %v/%v/%v, want 42.5", h.Min(), h.Max(), h.Mean())
	}
	if h.Std() != 0 {
		t.Errorf("single-sample std = %v, want 0", h.Std())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42.5 {
			t.Errorf("Quantile(%v) = %v, want 42.5 (clamped to exact range)", q, got)
		}
	}
}

func TestHistogramRejectsNonFinite(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 0 {
		t.Fatalf("non-finite samples were accepted: count = %d", h.Count())
	}
	if h.Rejected() != 3 {
		t.Fatalf("rejected = %d, want 3", h.Rejected())
	}
	h.Observe(1.0)
	if h.Count() != 1 || h.Mean() != 1.0 {
		t.Fatalf("finite sample after rejections: count=%d mean=%v", h.Count(), h.Mean())
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(5)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != -3 || h.Max() != 5 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(0.01); q < -3 || q > 5 {
		t.Errorf("quantile out of sample range: %v", q)
	}
}

func TestHistogramQuantileMonotonicity(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewPCG(7, 9))
	for i := 0; i < 5000; i++ {
		// Heavy-tailed mixture spanning many decades plus exact ties.
		switch i % 3 {
		case 0:
			h.Observe(math.Exp(r.NormFloat64() * 4))
		case 1:
			h.Observe(1e-3)
		default:
			h.Observe(float64(i))
		}
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0+1e-12; q += 0.001 {
		v := h.Quantile(q)
		if math.IsNaN(v) {
			t.Fatalf("Quantile(%v) = NaN on non-empty histogram", q)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v: not monotone", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Errorf("quantile endpoints: q0=%v min=%v q1=%v max=%v",
			h.Quantile(0), h.Min(), h.Quantile(1), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	// Log-bucket resolution is 10^(1/8) ≈ 1.33x per bucket.
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := q * 10000
		if got < want/1.4 || got > want*1.4 {
			t.Errorf("Quantile(%v) = %v, want within 1.4x of %v", q, got, want)
		}
	}
}

func TestHistogramMergeDisjointRanges(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	for i := 0; i < 100; i++ {
		a.Observe(1e-6 * float64(i+1)) // microscale
		b.Observe(1e6 * float64(i+1))  // megascale
	}
	b.Observe(math.NaN())
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Rejected() != 1 {
		t.Errorf("merged rejected = %d, want 1", a.Rejected())
	}
	if a.Min() != 1e-6 || a.Max() != 1e8 {
		t.Errorf("merged min/max = %v/%v, want 1e-6/1e8", a.Min(), a.Max())
	}
	// The median separates the two disjoint clouds.
	med := a.Quantile(0.5)
	if med < 1e-4 || med > 1e6 {
		t.Errorf("merged median %v does not fall between the clouds", med)
	}
	if lo := a.Quantile(0.2); lo > 1e-3 {
		t.Errorf("q20 = %v, should land in the microscale cloud", lo)
	}
	if hi := a.Quantile(0.8); hi < 1e5 {
		t.Errorf("q80 = %v, should land in the megascale cloud", hi)
	}
	// Mean is dominated by the megascale cloud.
	if a.Mean() < 1e6 {
		t.Errorf("merged mean = %v", a.Mean())
	}
}

func TestHistogramMergeEmptyAndSelf(t *testing.T) {
	a := NewHistogram()
	a.Observe(3)
	a.Merge(NewHistogram())
	if a.Count() != 1 {
		t.Fatalf("merge with empty changed count: %d", a.Count())
	}
	a.Merge(a)
	if a.Count() != 1 {
		t.Fatalf("self-merge double-counted: %d", a.Count())
	}
	empty := NewHistogram()
	empty.Merge(a)
	if empty.Count() != 1 || empty.Min() != 3 {
		t.Fatalf("merge into empty: count=%d min=%v", empty.Count(), empty.Min())
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Sum() != sum {
		t.Errorf("sum = %v, want %v", h.Sum(), sum)
	}
	if got, want := h.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Sample stddev of the classic 2,4,4,4,5,5,7,9 set is sqrt(32/7).
	if got, want := h.Std(), math.Sqrt(32.0/7); math.Abs(got-want) > 1e-9 {
		t.Errorf("std = %v, want %v", got, want)
	}
}
