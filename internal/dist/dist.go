// Package dist provides the probability substrate used by the multilevel
// checkpoint models and the simulator: the exponential failure law of the
// paper (Eqn. 1), truncated expectations (Eqn. 2), negative-binomial
// retry-count estimators (Eqns. 5, 8, 12), competing-risk severity
// shares, the samplers the simulator draws arrivals from, and a Weibull
// extension for non-memoryless failure studies.
//
// All durations are expressed in minutes, matching Table I of the paper,
// and all rates are in failures per minute.
package dist

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidRate is returned by constructors when a failure rate is not a
// positive finite number.
var ErrInvalidRate = errors.New("dist: failure rate must be positive and finite")

// TruncExp returns E(t, X), the expected value of an exponential
// distribution with rate X truncated to the interval [0, t] (paper
// Eqn. 2):
//
//	E(t, X) = (1/X - exp(-X*t)*(1/X + t)) / P(t, X)
//
// It is the expected amount of time elapsed into an event of duration t at
// the moment a failure strikes, conditioned on a failure striking during
// the event. As t -> 0 the value tends to t/2; as t -> infinity it tends
// to the unconditional mean 1/X.
func TruncExp(t, rate float64) float64 {
	if t <= 0 || rate <= 0 {
		return 0
	}
	x := rate * t
	if x < 1e-8 {
		// Second-order series: conditional mean of a near-uniform
		// strike position, avoiding cancellation in the closed form.
		return t / 2 * (1 - x/6)
	}
	// Algebraically equal to Eqn. 2's
	// (1/X - exp(-X*t)*(1/X + t)) / P(t,X) but numerically stable
	// for small X*t.
	return 1/rate - t/math.Expm1(x)
}

// RetryCount returns the expected number of failed attempts before an
// event of duration t first completes without a failure, for failure rate
// X. The paper models this with a negative-binomial estimator
// P/(1-P) = exp(X*t) - 1 (Eqns. 5, 8 and 12 use this shape per attempt).
func RetryCount(t, rate float64) float64 {
	if t <= 0 || rate <= 0 {
		return 0
	}
	return math.Expm1(rate * t)
}

// Exponential is an exponential failure law with a fixed rate.
type Exponential struct {
	rate float64
}

// NewExponential builds an exponential law. The rate must be positive and
// finite.
func NewExponential(rate float64) (Exponential, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return Exponential{}, fmt.Errorf("%w: %v", ErrInvalidRate, rate)
	}
	return Exponential{rate: rate}, nil
}

// Rate returns the failure rate in failures per minute.
func (e Exponential) Rate() float64 { return e.rate }

// MTBF returns the mean time between failures, 1/rate.
func (e Exponential) MTBF() float64 { return 1 / e.rate }

// Mean returns the unconditional mean 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.rate }

// CompetingRates describes a set of independent exponential failure
// processes racing against each other — the L severity classes of a
// multilevel checkpointing system.
type CompetingRates struct {
	rates []float64
	total float64
}

// NewCompeting builds a competing-risk set from per-class rates. Zero
// rates are permitted (a class that never fires); negative, NaN or
// infinite rates are rejected. At least one rate must be positive.
func NewCompeting(rates []float64) (*CompetingRates, error) {
	if len(rates) == 0 {
		return nil, errors.New("dist: competing-risk set needs at least one class")
	}
	c := &CompetingRates{rates: append([]float64(nil), rates...)}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("dist: class %d rate %v invalid", i, r)
		}
		c.total += r
	}
	if c.total <= 0 {
		return nil, errors.New("dist: all competing rates are zero")
	}
	return c, nil
}

// Total returns the aggregate rate Σλ_i.
func (c *CompetingRates) Total() float64 { return c.total }

// Classes returns the number of severity classes.
func (c *CompetingRates) Classes() int { return len(c.rates) }

// Rate returns the rate of class i (0-based).
func (c *CompetingRates) Rate(i int) float64 { return c.rates[i] }

// Share returns S_i = λ_i / λ, the probability that a failure, given that
// one occurs, belongs to class i.
func (c *CompetingRates) Share(i int) float64 { return c.rates[i] / c.total }

// Weibull is a Weibull failure law, the common non-memoryless extension
// in the checkpointing literature. Shape k = 1 reduces to Exponential.
type Weibull struct {
	scale float64 // λ (characteristic life, minutes)
	shape float64 // k
}

// NewWeibull builds a Weibull law with the given scale (characteristic
// life, minutes) and shape. Both must be positive and finite.
func NewWeibull(scale, shape float64) (Weibull, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return Weibull{}, fmt.Errorf("dist: weibull scale %v invalid", scale)
	}
	if !(shape > 0) || math.IsInf(shape, 1) {
		return Weibull{}, fmt.Errorf("dist: weibull shape %v invalid", shape)
	}
	return Weibull{scale: scale, shape: shape}, nil
}

// Scale returns the characteristic life in minutes.
func (w Weibull) Scale() float64 { return w.scale }

// Shape returns the Weibull shape parameter k.
func (w Weibull) Shape() float64 { return w.shape }

// Mean returns λ·Γ(1 + 1/k).
func (w Weibull) Mean() float64 {
	return w.scale * math.Gamma(1+1/w.shape)
}
