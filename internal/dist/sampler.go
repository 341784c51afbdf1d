package dist

import (
	"math"
	"math/rand/v2"
)

// Sampler draws failure inter-arrival times. Both Exponential and Weibull
// laws satisfy it, as does any custom law a caller wants to inject into
// the simulator.
type Sampler interface {
	// Sample draws one inter-arrival time in minutes using src.
	Sample(src *rand.Rand) float64
	// Mean returns the unconditional mean inter-arrival time.
	Mean() float64
}

// Sample draws an exponential inter-arrival time by inversion:
// FromUnit(UnitExp(src.Float64())).
func (e Exponential) Sample(src *rand.Rand) float64 {
	return e.FromUnit(UnitExp(src.Float64()))
}

// FromUnit maps a unit exponential x to an exponential inter-arrival
// time: x over the rate. Sample is FromUnit of one UnitExp draw, so a
// caller that draws the unit exponentials itself, in the same order,
// gets the same bits.
func (e Exponential) FromUnit(x float64) float64 { return x / e.rate }

// Sample draws a Weibull inter-arrival time by inversion:
// FromUnit(UnitExp(src.Float64())).
func (w Weibull) Sample(src *rand.Rand) float64 {
	return w.FromUnit(UnitExp(src.Float64()))
}

// FromUnit maps a unit exponential x to a Weibull inter-arrival time:
// the scale times x to the power 1/k. Sample is FromUnit of one UnitExp
// draw, as for Exponential.
func (w Weibull) FromUnit(x float64) float64 {
	return w.scale * math.Pow(x, 1/w.shape)
}

// SeverityPicker samples the severity class of a failure given the
// competing-risk shares. Classes are returned 0-based.
type SeverityPicker struct {
	cum []float64
}

// NewSeverityPicker precomputes the cumulative class distribution of a
// competing-risk set.
func NewSeverityPicker(c *CompetingRates) *SeverityPicker {
	cum := make([]float64, c.Classes())
	var acc float64
	for i := 0; i < c.Classes(); i++ {
		acc += c.Share(i)
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // absorb FP residue
	return &SeverityPicker{cum: cum}
}

// Pick samples a 0-based severity class.
func (p *SeverityPicker) Pick(src *rand.Rand) int {
	u := src.Float64()
	for i, c := range p.cum {
		if u <= c {
			return i
		}
	}
	return len(p.cum) - 1
}

// Classes returns the number of severity classes the picker covers.
func (p *SeverityPicker) Classes() int { return len(p.cum) }
