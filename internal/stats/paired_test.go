package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// Self-merge regression (ISSUE 7): s.Merge(s) used to double n and m2,
// corrupting the variance while keeping the mean plausible.
func TestSampleMergeSelfAlias(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3, 4, 5})
	want := s
	s.Merge(&s)
	if s != want {
		t.Fatalf("self-merge changed the sample: got %+v, want %+v", s, want)
	}
	if got, wantVar := s.Var(), 2.5; math.Abs(got-wantVar) > 1e-12 {
		t.Fatalf("variance after self-merge = %v, want %v", got, wantVar)
	}
}

// Quantiles must agree with per-call Quantile while sorting only once;
// SortedQuantile must agree on pre-sorted input.
func TestQuantilesAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	qs := []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1}
	got, err := Quantiles(xs, qs...)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ { // insertion sort: no sort import needed
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i, q := range qs {
		single, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != single {
			t.Errorf("Quantiles[%v] = %v, Quantile = %v", q, got[i], single)
		}
		presorted, err := SortedQuantile(sorted, q)
		if err != nil {
			t.Fatal(err)
		}
		if presorted != single {
			t.Errorf("SortedQuantile(%v) = %v, Quantile = %v", q, presorted, single)
		}
	}
	if _, err := Quantiles(nil, 0.5); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("empty Quantiles err = %v, want ErrTooFewSamples", err)
	}
	if _, err := Quantiles(xs, 0.5, math.NaN()); err == nil {
		t.Error("NaN quantile accepted")
	}
	if _, err := SortedQuantile(sorted, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
}

// NaN regression (ISSUE 7): NaN inputs used to flow through sign() as +1
// and through SignificantlyGreater as a silent (false, nil).
func TestWelchRejectsNaN(t *testing.T) {
	good := Of([]float64{1, 2, 3, 4})
	for _, bad := range []Summary{
		{N: 4, Mean: math.NaN(), Std: 1},
		{N: 4, Mean: 1, Std: math.NaN()},
		{N: 4, Mean: math.Inf(1), Std: 1},
	} {
		if _, err := WelchT(bad, good); !errors.Is(err, ErrNonFinite) {
			t.Errorf("WelchT(%+v, good) err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := WelchT(good, bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("WelchT(good, %+v) err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := SignificantlyGreater(bad, good, 0.95); !errors.Is(err, ErrNonFinite) {
			t.Errorf("SignificantlyGreater(%+v, good) err = %v, want ErrNonFinite", bad, err)
		}
	}
	// Finite inputs still work.
	if sig, err := SignificantlyGreater(Of([]float64{10, 11, 12}), Of([]float64{1, 2, 3}), 0.95); err != nil || !sig {
		t.Errorf("clear separation: sig=%v err=%v, want true,nil", sig, err)
	}
}

func TestPairedSampleRejectsNaN(t *testing.T) {
	var p PairedSample
	p.Add(1, 2)
	p.Add(math.NaN(), 3)
	p.Add(2, 4)
	if _, err := p.CIDiff(0.95); !errors.Is(err, ErrNonFinite) {
		t.Errorf("CIDiff err = %v, want ErrNonFinite", err)
	}
	if _, err := p.TTest(); !errors.Is(err, ErrNonFinite) {
		t.Errorf("TTest err = %v, want ErrNonFinite", err)
	}
	if _, err := p.Compare(0.95); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Compare err = %v, want ErrNonFinite", err)
	}
	if _, err := SignificantlyGreaterPaired([]float64{1, math.NaN()}, []float64{1, 2}, 0.95); !errors.Is(err, ErrNonFinite) {
		t.Errorf("SignificantlyGreaterPaired err = %v, want ErrNonFinite", err)
	}
}

// Paired moments must match the direct two-pass computation.
func TestPairedSampleMoments(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var as, bs []float64
	var p PairedSample
	for i := 0; i < 500; i++ {
		a := r.NormFloat64()*3 + 10
		b := 0.8*a + r.NormFloat64() // correlated
		as, bs = append(as, a), append(bs, b)
		p.Add(a, b)
	}
	meanA, meanB := Mean(as), Mean(bs)
	var covSum, varD float64
	for i := range as {
		covSum += (as[i] - meanA) * (bs[i] - meanB)
		d := (as[i] - bs[i]) - (meanA - meanB)
		varD += d * d
	}
	cov := covSum / float64(len(as)-1)
	varD /= float64(len(as) - 1)
	if math.Abs(p.MeanA()-meanA) > 1e-10 || math.Abs(p.MeanB()-meanB) > 1e-10 {
		t.Fatalf("means (%v, %v), want (%v, %v)", p.MeanA(), p.MeanB(), meanA, meanB)
	}
	if math.Abs(p.Cov()-cov) > 1e-9 {
		t.Fatalf("Cov = %v, want %v", p.Cov(), cov)
	}
	if math.Abs(p.VarDiff()-varD) > 1e-9 {
		t.Fatalf("VarDiff = %v, want %v", p.VarDiff(), varD)
	}
	corr := cov / (Std(as) * Std(bs))
	if math.Abs(p.Corr()-corr) > 1e-9 {
		t.Fatalf("Corr = %v, want %v", p.Corr(), corr)
	}
}

// On strongly correlated pairs the paired CI must be far narrower than
// the unpaired Welch CI of the same data, and the Comparison must
// report the shrinkage.
func TestPairedBeatsWelchOnCorrelatedData(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	var as, bs []float64
	for i := 0; i < 400; i++ {
		common := r.NormFloat64() * 10 // shared noise, as under CRN
		as = append(as, 1.0+common+0.1*r.NormFloat64())
		bs = append(bs, 0.5+common+0.1*r.NormFloat64())
	}
	c, err := PairedCompare(as, bs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if c.CIHalf <= 0 || c.WelchCIHalf/c.CIHalf < 10 {
		t.Fatalf("paired CI %v vs Welch CI %v: want >= 10x shrink", c.CIHalf, c.WelchCIHalf)
	}
	if c.Corr < 0.99 {
		t.Fatalf("Corr = %v, want ~1 for shared-noise pairs", c.Corr)
	}
	if !c.AGreater() || c.BGreater() {
		t.Fatalf("verdicts AGreater=%v BGreater=%v, want true,false", c.AGreater(), c.BGreater())
	}
	if math.Abs(c.MeanDiff-0.5) > 0.05 {
		t.Fatalf("MeanDiff = %v, want ~0.5", c.MeanDiff)
	}
	sig, err := SignificantlyGreaterPaired(as, bs, 0.95)
	if err != nil || !sig {
		t.Fatalf("SignificantlyGreaterPaired = %v, %v; want true, nil", sig, err)
	}
	// The unpaired test cannot see the difference through the shared
	// noise at this sample size.
	welchSig, err := SignificantlyGreater(Of(as), Of(bs), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if welchSig {
		t.Fatal("unpaired Welch certified the difference through 10σ shared noise; test data is miscalibrated")
	}
}

// The control-variate estimator must stay unbiased and cut the variance
// by ~1-ρ² when the control explains most of the output variance.
func TestControlVariate(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	var ys, cs []float64
	for i := 0; i < 2000; i++ {
		c := r.NormFloat64() // mean-zero control
		ys = append(ys, 5+2*c+0.2*r.NormFloat64())
		cs = append(cs, c)
	}
	res, err := ControlVariate(ys, cs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-5) > 0.05 {
		t.Fatalf("adjusted mean = %v, want ~5", res.Mean)
	}
	if math.Abs(res.Beta-2) > 0.05 {
		t.Fatalf("beta = %v, want ~2", res.Beta)
	}
	if res.Std > res.RawStd/5 {
		t.Fatalf("adjusted std %v vs raw %v: want >= 5x reduction", res.Std, res.RawStd)
	}
	ci, err := res.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci <= 0 || ci > 0.02 {
		t.Fatalf("adjusted CI = %v, want small positive", ci)
	}
	// Constant control degrades gracefully to the raw estimator.
	flat := make([]float64, len(ys))
	res2, err := ControlVariate(ys, flat)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mean != res2.RawMean || res2.Std != res2.RawStd || res2.Beta != 0 {
		t.Fatalf("constant control: got %+v, want raw fallback", res2)
	}
	// Mismatched lengths and NaN inputs are errors.
	if _, err := ControlVariate(ys[:10], cs[:9]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ControlVariate([]float64{1, math.NaN(), 3}, []float64{0, 0, 1}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN output err = %v, want ErrNonFinite", err)
	}
}
