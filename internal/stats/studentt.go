package stats

import (
	"fmt"
	"math"
)

// studentTSF returns P(T > t) for a Student-t variable with df degrees of
// freedom (one-sided survival function), t >= 0, via the regularized
// incomplete beta function.
func studentTSF(t, df float64) float64 {
	if t < 0 {
		return 1 - studentTSF(-t, df)
	}
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + float64(t*t))
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// StudentTQuantile returns the p-th quantile of the Student-t
// distribution with df degrees of freedom, by bisection on the CDF.
// p must lie in (0, 1); df must be positive.
func StudentTQuantile(p, df float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("stats: t quantile probability %v outside (0,1)", p)
	}
	if !(df > 0) {
		return 0, fmt.Errorf("stats: degrees of freedom %v must be positive", df)
	}
	if p == 0.5 {
		return 0, nil
	}
	cdf := func(t float64) float64 { return 1 - studentTSF(t, df) }
	// Bracket the quantile.
	lo, hi := -1.0, 1.0
	for cdf(lo) > p {
		lo *= 2
		if lo < -1e8 {
			break
		}
	}
	for cdf(hi) < p {
		hi *= 2
		if hi > 1e8 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(hi)) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + float64(a*math.Log(x)) + float64(b*math.Log(1-x)))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-15
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
