package stats

import (
	"fmt"
	"math"
)

// PairedSample accumulates paired observations (a_i, b_i) — the same
// trial index simulated under two techniques with common random numbers
// — using Welford-style online moments for a, b, their difference, and
// the cross-moment. The paired difference is what the paper's headline
// claims are really about ("technique X beats technique Y on the same
// system"), and under CRN its variance shrinks by the factor
// 1 - 2ρσaσb/(σa²+σb²) relative to the unpaired Welch comparison.
type PairedSample struct {
	n            int
	meanA, meanB float64
	m2A, m2B     float64
	cab          float64 // Σ (a-meanA)(b-meanB), updated online
}

// Add records one pair.
func (p *PairedSample) Add(a, b float64) {
	p.n++
	n := float64(p.n)
	da := a - p.meanA
	p.meanA += da / n
	db := b - p.meanB
	p.meanB += db / n
	// Cross-moment uses the pre-update delta of a and post-update delta
	// of b (standard online covariance update).
	p.cab += float64(da * (b - p.meanB))
	p.m2A += float64(da * (a - p.meanA))
	p.m2B += float64(db * (b - p.meanB))
}

// AddAll records aligned slices of pairs; the slices must be the same
// length.
func (p *PairedSample) AddAll(as, bs []float64) error {
	if len(as) != len(bs) {
		return fmt.Errorf("stats: paired samples of unequal length %d and %d", len(as), len(bs))
	}
	for i := range as {
		p.Add(as[i], bs[i])
	}
	return nil
}

// N returns the number of pairs.
func (p *PairedSample) N() int { return p.n }

// MeanA returns the mean of the first coordinate.
func (p *PairedSample) MeanA() float64 { return p.meanA }

// MeanB returns the mean of the second coordinate.
func (p *PairedSample) MeanB() float64 { return p.meanB }

// MeanDiff returns the mean paired difference a−b.
func (p *PairedSample) MeanDiff() float64 { return p.meanA - p.meanB }

// VarDiff returns the unbiased variance of the paired differences,
// Var(a) + Var(b) − 2·Cov(a,b).
func (p *PairedSample) VarDiff() float64 {
	if p.n < 2 {
		return 0
	}
	v := (p.m2A + p.m2B - 2*p.cab) / float64(p.n-1)
	if v < 0 {
		// Cancellation can push an (analytically non-negative) result a
		// few ulps below zero when the coordinates are near-identical.
		return 0
	}
	return v
}

// Cov returns the unbiased sample covariance of the pairs.
func (p *PairedSample) Cov() float64 {
	if p.n < 2 {
		return 0
	}
	return p.cab / float64(p.n-1)
}

// Corr returns the sample correlation coefficient (0 when either
// coordinate is constant).
func (p *PairedSample) Corr() float64 {
	if p.n < 2 || p.m2A == 0 || p.m2B == 0 {
		return 0
	}
	return p.cab / math.Sqrt(p.m2A*p.m2B)
}

// StdErrDiff returns the standard error of the mean paired difference.
func (p *PairedSample) StdErrDiff() float64 {
	if p.n == 0 {
		return 0
	}
	return math.Sqrt(p.VarDiff() / float64(p.n))
}

// CIDiff returns the half-width of the two-sided confidence interval of
// the mean paired difference at the given level (e.g. 0.95).
func (p *PairedSample) CIDiff(level float64) (float64, error) {
	if p.n < 2 {
		return 0, fmt.Errorf("%w: have %d pairs, need 2", ErrTooFewSamples, p.n)
	}
	if err := p.checkFinite(); err != nil {
		return 0, err
	}
	t, err := StudentTQuantile(1-float64((1-level)/2), float64(p.n-1))
	if err != nil {
		return 0, err
	}
	return t * p.StdErrDiff(), nil
}

// PairedTResult reports a paired (one-sample-on-differences) t-test.
type PairedTResult struct {
	T  float64 // t statistic of the mean difference a − b
	DF float64 // n − 1
	P  float64 // two-sided p-value
}

// TTest performs the paired t-test of mean(a−b) = 0.
func (p *PairedSample) TTest() (PairedTResult, error) {
	if p.n < 2 {
		return PairedTResult{}, fmt.Errorf("%w: have %d pairs, need 2", ErrTooFewSamples, p.n)
	}
	if err := p.checkFinite(); err != nil {
		return PairedTResult{}, err
	}
	df := float64(p.n - 1)
	se := p.StdErrDiff()
	if se == 0 {
		// Identical pairs throughout: no difference (p=1) or a constant
		// one (infinitely significant), mirroring WelchT's degenerate
		// handling.
		if p.MeanDiff() == 0 {
			return PairedTResult{T: 0, DF: df, P: 1}, nil
		}
		return PairedTResult{T: math.Inf(sign(p.MeanDiff())), DF: df, P: 0}, nil
	}
	t := p.MeanDiff() / se
	pv := 2 * studentTSF(math.Abs(t), df)
	if math.IsNaN(pv) {
		return PairedTResult{}, fmt.Errorf("%w: paired t=%v df=%v", ErrNonFinite, t, df)
	}
	return PairedTResult{T: t, DF: df, P: pv}, nil
}

// checkFinite rejects accumulated moments poisoned by NaN or ±Inf
// observations. Welford arithmetic propagates a single NaN into every
// subsequent moment, so checking the final moments catches any bad
// input.
func (p *PairedSample) checkFinite() error {
	for _, v := range [...]float64{p.meanA, p.meanB, p.m2A, p.m2B, p.cab} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: paired moments meanA=%v meanB=%v", ErrNonFinite, p.meanA, p.meanB)
		}
	}
	return nil
}

// Comparison is a full paired comparison of two aligned samples: the
// estimate of E[a−b], its confidence interval, the significance test,
// and the variance-reduction diagnostics that justify pairing.
type Comparison struct {
	N        int     // pairs
	MeanA    float64 // mean of a
	MeanB    float64 // mean of b
	MeanDiff float64 // mean of a − b
	CIHalf   float64 // paired CI half-width of MeanDiff at Level
	Level    float64 // confidence level the CI and verdicts use
	T        float64 // paired t statistic
	DF       float64 // n − 1
	P        float64 // two-sided p-value
	Corr     float64 // sample correlation between a and b
	// WelchCIHalf is the CI half-width an unpaired Welch comparison of
	// the same two samples would report — the "what CRN bought us"
	// yardstick. VarReduction is (WelchCIHalf/CIHalf)², the factor by
	// which pairing divides the trial count needed for a fixed width.
	WelchCIHalf  float64
	VarReduction float64
}

// AGreater reports whether mean(a) exceeds mean(b) with one-sided
// confidence at the comparison's level.
func (c Comparison) AGreater() bool { return c.T > 0 && c.P/2 < 1-c.Level }

// BGreater reports whether mean(b) exceeds mean(a) with one-sided
// confidence at the comparison's level.
func (c Comparison) BGreater() bool { return c.T < 0 && c.P/2 < 1-c.Level }

// PairedCompare compares two index-aligned samples (trial i of a and
// trial i of b ran under common random numbers) at the given confidence
// level. Campaigns that ran with CRN use this in place of the unpaired
// Welch test: the point estimate of the difference is identical, but
// the interval shrinks with the cross-technique correlation.
func PairedCompare(as, bs []float64, level float64) (Comparison, error) {
	var p PairedSample
	if err := p.AddAll(as, bs); err != nil {
		return Comparison{}, err
	}
	return p.Compare(level)
}

// Compare finalizes the accumulated pairs into a Comparison.
func (p *PairedSample) Compare(level float64) (Comparison, error) {
	ci, err := p.CIDiff(level)
	if err != nil {
		return Comparison{}, err
	}
	tt, err := p.TTest()
	if err != nil {
		return Comparison{}, err
	}
	out := Comparison{
		N:        p.n,
		MeanA:    p.meanA,
		MeanB:    p.meanB,
		MeanDiff: p.MeanDiff(),
		CIHalf:   ci,
		Level:    level,
		T:        tt.T,
		DF:       tt.DF,
		P:        tt.P,
		Corr:     p.Corr(),
	}
	// The unpaired yardstick: Welch CI half-width of the mean difference
	// from the same marginal variances, ignoring the pairing.
	nf := float64(p.n)
	if p.n >= 2 {
		seW := math.Sqrt((p.m2A + p.m2B) / (nf - 1) / nf)
		va, vb := p.m2A/(nf-1)/nf, p.m2B/(nf-1)/nf
		dfW := nf - 1 // equal n; Welch–Satterthwaite when variances differ
		if va > 0 || vb > 0 {
			dfW = (va + vb) * (va + vb) / (va*va/(nf-1) + vb*vb/(nf-1))
		}
		tq, err := StudentTQuantile(1-float64((1-level)/2), dfW)
		if err != nil {
			return Comparison{}, err
		}
		out.WelchCIHalf = tq * seW
		if ci > 0 {
			out.VarReduction = (out.WelchCIHalf / ci) * (out.WelchCIHalf / ci)
		}
	}
	return out, nil
}

// SignificantlyGreaterPaired reports whether the first coordinate's mean
// exceeds the second's with one-sided confidence at the given level,
// using the paired t-test. The samples must be index-aligned (CRN).
func SignificantlyGreaterPaired(as, bs []float64, level float64) (bool, error) {
	var p PairedSample
	if err := p.AddAll(as, bs); err != nil {
		return false, err
	}
	tt, err := p.TTest()
	if err != nil {
		return false, err
	}
	if tt.T <= 0 {
		return false, nil
	}
	return tt.P/2 < 1-level, nil
}

// CVResult is a control-variate-adjusted mean estimate: for outputs y
// and a mean-zero control c correlated with y, the estimator
// mean(y) − β·mean(c) with β = Cov(y,c)/Var(c) has the same expectation
// as mean(y) and variance reduced by the factor 1−ρ²(y,c). β is
// estimated from the same sample (the textbook regression-sampling
// estimator; the O(1/n) bias this introduces is negligible at campaign
// trial counts and noted in DESIGN.md §2.11).
type CVResult struct {
	N    int
	Beta float64 // fitted control coefficient
	Mean float64 // adjusted mean estimate
	Std  float64 // standard deviation of the adjusted observations
	Corr float64 // sample correlation between y and c
	// RawMean and RawStd echo the unadjusted sample for comparison.
	RawMean float64
	RawStd  float64
}

// CI returns the half-width of the adjusted mean's confidence interval.
// The residual-based interval uses n−2 degrees of freedom (one each for
// the fitted mean and β).
func (r CVResult) CI(level float64) (float64, error) {
	if r.N < 3 {
		return 0, fmt.Errorf("%w: have %d, need 3", ErrTooFewSamples, r.N)
	}
	t, err := StudentTQuantile(1-float64((1-level)/2), float64(r.N-2))
	if err != nil {
		return 0, err
	}
	return t * r.Std / math.Sqrt(float64(r.N)), nil
}

// ControlVariate fits the regression-sampling control-variate estimator
// of mean(y) using the mean-zero control c (E[c] = 0 must hold exactly
// — for the simulator's failure-count martingale control it does, by
// the optional-stopping theorem; see DESIGN.md §2.11).
func ControlVariate(ys, cs []float64) (CVResult, error) {
	if len(ys) != len(cs) {
		return CVResult{}, fmt.Errorf("stats: control variate lengths %d and %d", len(ys), len(cs))
	}
	var p PairedSample
	if err := p.AddAll(ys, cs); err != nil {
		return CVResult{}, err
	}
	if p.n < 3 {
		return CVResult{}, fmt.Errorf("%w: have %d, need 3", ErrTooFewSamples, p.n)
	}
	if err := p.checkFinite(); err != nil {
		return CVResult{}, err
	}
	out := CVResult{
		N:       p.n,
		Corr:    p.Corr(),
		RawMean: p.meanA,
		RawStd:  math.Sqrt(p.m2A / float64(p.n-1)),
	}
	if p.m2B == 0 {
		// Constant control carries no information; fall back to the raw
		// estimator.
		out.Mean, out.Std = out.RawMean, out.RawStd
		return out, nil
	}
	out.Beta = p.cab / p.m2B
	// Adjusted observations are y_i − β(c_i − 0); their mean uses the
	// control's KNOWN expectation (zero), which is where the variance
	// reduction comes from.
	out.Mean = p.meanA - float64(out.Beta*p.meanB)
	// Residual second moment: m2A − β²·m2B (= m2A(1−ρ²)).
	res := p.m2A - float64(out.Beta*out.Beta*p.m2B)
	if res < 0 {
		res = 0
	}
	out.Std = math.Sqrt(res / float64(p.n-1))
	return out, nil
}
