package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestTruncExpClosedForm(t *testing.T) {
	// Direct evaluation of paper Eqn. 2 at moderate X*t.
	tt, x := 10.0, 0.2
	p := 1 - math.Exp(-x*tt)
	want := (1/x - math.Exp(-x*tt)*(1/x+tt)) / p
	if got := TruncExp(tt, x); !almost(got, want, 1e-12) {
		t.Errorf("E(%v,%v) = %v, want %v", tt, x, got, want)
	}
}

func TestTruncExpLimits(t *testing.T) {
	// Small X*t: conditional strike position tends to t/2.
	if got := TruncExp(1e-6, 1e-6); !almost(got, 5e-7, 1e-6) {
		t.Errorf("small-x TruncExp = %v, want ~5e-7", got)
	}
	// Large X*t: tends to the unconditional mean 1/X.
	if got := TruncExp(1e9, 0.5); !almost(got, 2, 1e-9) {
		t.Errorf("large-x TruncExp = %v, want ~2", got)
	}
	if got := TruncExp(0, 1); got != 0 {
		t.Errorf("TruncExp(0,1) = %v, want 0", got)
	}
}

func TestTruncExpBounds(t *testing.T) {
	// 0 < E(t,X) < min(t, 1/X) for all positive t, X; E increases with t.
	f := func(tRaw, xRaw float64) bool {
		tt := math.Mod(math.Abs(tRaw), 1e5) + 1e-9
		x := math.Mod(math.Abs(xRaw), 100) + 1e-9
		e := TruncExp(tt, x)
		if !(e > 0) || e >= tt || e > 1/x {
			return false
		}
		return TruncExp(tt*2, x) >= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTruncExpContinuityAcrossSeriesSwitch(t *testing.T) {
	// The series branch at x < 1e-8 must agree with the closed form.
	x := 1e-3
	tBelow := 0.9e-8 / x
	tAbove := 1.1e-8 / x
	if !almost(TruncExp(tBelow, x)/tBelow, TruncExp(tAbove, x)/tAbove, 1e-6) {
		t.Errorf("discontinuity across series switch: %v vs %v",
			TruncExp(tBelow, x)/tBelow, TruncExp(tAbove, x)/tAbove)
	}
}

func TestRetryCount(t *testing.T) {
	// P/(1-P) with P = 1-exp(-xt) equals exp(xt)-1.
	tt, x := 5.0, 0.3
	p := 1 - math.Exp(-x*tt)
	want := p / (1 - p)
	if got := RetryCount(tt, x); !almost(got, want, 1e-12) {
		t.Errorf("RetryCount = %v, want %v", got, want)
	}
	if got := RetryCount(0, 1); got != 0 {
		t.Errorf("RetryCount(0,1) = %v, want 0", got)
	}
}

func TestNewExponentialValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewExponential(bad); err == nil {
			t.Errorf("NewExponential(%v) accepted", bad)
		}
	}
	e, err := NewExponential(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if e.MTBF() != 4 || e.Rate() != 0.25 || e.Mean() != 4 {
		t.Errorf("exponential accessors wrong: %+v", e)
	}
}

func TestCompetingRates(t *testing.T) {
	c, err := NewCompeting([]float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Classes() != 3 || !almost(c.Total(), 1.0, 1e-12) {
		t.Fatalf("bad competing set: %+v", c)
	}
	if !almost(c.Share(1), 0.3, 1e-12) {
		t.Errorf("Share(1) = %v", c.Share(1))
	}
}

func TestCompetingValidation(t *testing.T) {
	if _, err := NewCompeting(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewCompeting([]float64{0, 0}); err == nil {
		t.Error("all-zero set accepted")
	}
	if _, err := NewCompeting([]float64{1, -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewCompeting([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN rate accepted")
	}
	if c, err := NewCompeting([]float64{0, 1}); err != nil || c.Share(0) != 0 {
		t.Errorf("zero class should be allowed: %v %v", c, err)
	}
}

func TestCompetingSharesSumToOne(t *testing.T) {
	f := func(a, b, c uint8) bool {
		rates := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		cr, err := NewCompeting(rates)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < cr.Classes(); i++ {
			sum += cr.Share(i)
		}
		return almost(sum, 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeibullReducesToExponential(t *testing.T) {
	w, err := NewWeibull(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewExponential(0.1)
	for _, x := range []float64{0.05, 0.5, 1, 2, 10} {
		if !almost(w.FromUnit(x), e.FromUnit(x), 1e-12) {
			t.Errorf("weibull(k=1) FromUnit(%v) = %v, exp = %v", x, w.FromUnit(x), e.FromUnit(x))
		}
	}
	if !almost(w.Mean(), 10, 1e-12) {
		t.Errorf("weibull mean = %v", w.Mean())
	}
}

func TestWeibullValidationAndShape(t *testing.T) {
	if _, err := NewWeibull(0, 1); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewWeibull(1, 0); err == nil {
		t.Error("zero shape accepted")
	}
	w, _ := NewWeibull(10, 0.7)
	if w.Scale() != 10 || w.Shape() != 0.7 {
		t.Error("accessors wrong")
	}
}

func TestExponentialSampleMean(t *testing.T) {
	e, _ := NewExponential(0.5)
	src := rand.New(rand.NewPCG(1, 2))
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := e.Sample(src)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
	}
	if got := sum / n; !almost(got, 2.0, 0.02) {
		t.Errorf("sample mean = %v, want ~2", got)
	}
}

func TestWeibullSampleMean(t *testing.T) {
	w, _ := NewWeibull(10, 2)
	src := rand.New(rand.NewPCG(3, 4))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += w.Sample(src)
	}
	if got, want := sum/n, w.Mean(); !almost(got, want, 0.02) {
		t.Errorf("weibull sample mean = %v, want ~%v", got, want)
	}
}

func TestSeverityPicker(t *testing.T) {
	c, _ := NewCompeting([]float64{3, 1})
	p := NewSeverityPicker(c)
	if p.Classes() != 2 {
		t.Fatalf("classes = %d", p.Classes())
	}
	src := rand.New(rand.NewPCG(5, 6))
	counts := [2]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[p.Pick(src)]++
	}
	if got := float64(counts[0]) / n; !almost(got, 0.75, 0.02) {
		t.Errorf("class-0 share = %v, want ~0.75", got)
	}
}

func TestTruncExpMonteCarloAgreement(t *testing.T) {
	// The truncated expectation must match the empirical mean strike
	// position of exponential arrivals conditioned to land within [0,t].
	e, _ := NewExponential(0.2)
	const tt = 4.0
	src := rand.New(rand.NewPCG(9, 10))
	var sum float64
	var n int
	for i := 0; i < 400000; i++ {
		v := e.Sample(src)
		if v <= tt {
			sum += v
			n++
		}
	}
	got := sum / float64(n)
	want := TruncExp(tt, 0.2)
	if !almost(got, want, 0.01) {
		t.Errorf("monte-carlo truncated mean = %v, analytic = %v", got, want)
	}
}
