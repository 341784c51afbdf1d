package bench

import "testing"

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same values.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 1.5}, 1.5, 0.5, 1.5, 2.5},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got, want := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false}, // rank 10, 9 beyond
		{20, 50, 10, true}, // rank 10, 10 beyond
		{999, 99, 0, false},
		{1000, 99, 990, true},
		{199, 95, 0, false},
		{200, 95, 190, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBootstrapIsDeterministic(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10.4, 9.8}
	head := []float64{9.1, 9.3, 9.0, 9.2, 9.4, 9.05}
	lo1, hi1 := bootstrapRatioCI(base, head, 7, 1000)
	lo2, hi2 := bootstrapRatioCI(base, head, 7, 1000)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("same seed gave [%v, %v] then [%v, %v]", lo1, hi1, lo2, hi2)
	}
	ratio := median(head) / median(base)
	if !(lo1 <= ratio && ratio <= hi1 && hi1 < 1) {
		t.Errorf("interval [%v, %v] should hold the ratio %v and exclude 1", lo1, hi1, ratio)
	}
}
