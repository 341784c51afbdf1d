// Package stats provides the statistical machinery the paper's evaluation
// relies on: sample means and standard deviations for the 200/400-trial
// campaigns, confidence intervals, and Welch's t-test for the paper's
// "95 % confidence that all improvements are statistically significant"
// claim (Section IV-F).
//
// A product that feeds a sum is rounded explicitly, as float64(x*y), so
// arm64 cannot fuse the two into one multiply-add and every GOARCH
// computes the same bits (./check.sh fma gates the package).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when an operation needs more samples than
// were supplied.
var ErrTooFewSamples = errors.New("stats: too few samples")

// ErrNonFinite is returned when an input summary or sample carries NaN
// or ±Inf moments. Significance verdicts must fail loudly on such
// inputs: a NaN silently compares as "not significant", which is the
// exact opposite of what a poisoned campaign should report.
var ErrNonFinite = errors.New("stats: non-finite input")

// Sample accumulates observations using Welford's online algorithm, which
// stays numerically stable for the long campaigns the experiment runner
// produces.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += float64(d * (x - s.mean))
}

// AddAll records a slice of observations.
func (s *Sample) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the unbiased sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Merge combines another sample into s (parallel reduction), using the
// Chan et al. pairwise update. Merging a sample into itself is a no-op:
// in a reduction tree an aliased merge is always a bookkeeping slip, and
// silently doubling n and m2 would corrupt the variance (m2/(n-1) is not
// alias-invariant) while leaving the mean plausible — the worst kind of
// wrong.
func (s *Sample) Merge(o *Sample) {
	if s == o || o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := float64(s.n + o.n)
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/n
	s.mean += d * float64(o.n) / n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
}

// CI returns the half-width of the two-sided confidence interval of the
// mean at the given confidence level (e.g. 0.95), using the Student-t
// quantile. Requires at least two observations.
func (s *Sample) CI(level float64) (float64, error) {
	if s.n < 2 {
		return 0, fmt.Errorf("%w: have %d, need 2", ErrTooFewSamples, s.n)
	}
	t, err := StudentTQuantile(1-float64((1-level)/2), float64(s.n-1))
	if err != nil {
		return 0, err
	}
	return t * s.StdErr(), nil
}

// Summary is an immutable snapshot of a sample, convenient for reports.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize snapshots a sample.
func Summarize(s *Sample) Summary {
	return Summary{N: s.n, Mean: s.Mean(), Std: s.Std(), Min: s.min, Max: s.max}
}

// Of builds a summary directly from a slice.
func Of(xs []float64) Summary {
	var s Sample
	s.AddAll(xs)
	return Summarize(&s)
}

// Mean returns the mean of a slice (0 for an empty slice).
func Mean(xs []float64) float64 {
	var s Sample
	s.AddAll(xs)
	return s.Mean()
}

// Std returns the unbiased standard deviation of a slice.
func Std(xs []float64) float64 {
	var s Sample
	s.AddAll(xs)
	return s.Std()
}

// Quantile returns the q-th empirical quantile (linear interpolation,
// type 7). xs need not be sorted; it is not modified. Callers that need
// several quantiles of the same sample should use Quantiles (one sort)
// or sort once themselves and call SortedQuantile — this convenience
// wrapper copies and sorts on every call.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrTooFewSamples
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedQuantile(sorted, q)
}

// SortedQuantile returns the q-th empirical quantile (linear
// interpolation, type 7) of an ascending-sorted sample, without copying
// or re-sorting. Passing unsorted data yields garbage; use Quantile or
// Quantiles when sortedness is not already guaranteed.
func SortedQuantile(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrTooFewSamples
	}
	if !(q >= 0 && q <= 1) { // negated so NaN is rejected too
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac), nil
}

// Quantiles returns the empirical quantile at each of qs, sorting the
// sample exactly once. Report and experiment loops that extract several
// quantiles per cell use this instead of repeated Quantile calls (which
// would copy and sort the sample per quantile).
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrTooFewSamples
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := SortedQuantile(sorted, q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WelchResult reports a two-sample Welch t-test.
type WelchResult struct {
	T  float64 // t statistic (a - b)
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchT performs Welch's unequal-variance t-test between two samples.
// The paper uses this (at 95 % confidence) to certify the Figure 5
// improvements. Both samples need at least two observations; NaN or
// infinite moments are rejected with ErrNonFinite rather than silently
// propagating into the verdict.
func WelchT(a, b Summary) (WelchResult, error) {
	if a.N < 2 || b.N < 2 {
		return WelchResult{}, fmt.Errorf("%w: n=%d,%d", ErrTooFewSamples, a.N, b.N)
	}
	if err := checkFinite(a); err != nil {
		return WelchResult{}, err
	}
	if err := checkFinite(b); err != nil {
		return WelchResult{}, err
	}
	va := a.Std * a.Std / float64(a.N)
	vb := b.Std * b.Std / float64(b.N)
	se := math.Sqrt(va + vb)
	if se == 0 {
		// Degenerate: identical constant samples are "not different";
		// different constants are infinitely significant.
		if a.Mean == b.Mean {
			return WelchResult{T: 0, DF: float64(a.N + b.N - 2), P: 1}, nil
		}
		return WelchResult{T: math.Inf(sign(a.Mean - b.Mean)), DF: float64(a.N + b.N - 2), P: 0}, nil
	}
	t := (a.Mean - b.Mean) / se
	df := (va + vb) * (va + vb) /
		(va*va/float64(a.N-1) + vb*vb/float64(b.N-1))
	p := 2 * studentTSF(math.Abs(t), df)
	if math.IsNaN(df) || df <= 0 || math.IsNaN(p) {
		// Degenerate degrees of freedom or a NaN p-value would otherwise
		// flow into comparisons as "not significant"; surface it instead.
		return WelchResult{}, fmt.Errorf("%w: welch t=%v df=%v p=%v", ErrNonFinite, t, df, p)
	}
	return WelchResult{T: t, DF: df, P: p}, nil
}

// SignificantlyGreater reports whether sample a's mean exceeds sample b's
// with one-sided confidence at the given level (e.g. 0.95). NaN inputs
// are an error, never a silent false.
func SignificantlyGreater(a, b Summary, level float64) (bool, error) {
	r, err := WelchT(a, b)
	if err != nil {
		return false, err
	}
	if r.T <= 0 {
		return false, nil
	}
	return r.P/2 < 1-level, nil
}

// checkFinite rejects summaries whose moments are NaN or infinite.
func checkFinite(s Summary) error {
	if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) || math.IsNaN(s.Std) || math.IsInf(s.Std, 0) {
		return fmt.Errorf("%w: mean=%v std=%v", ErrNonFinite, s.Mean, s.Std)
	}
	return nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
