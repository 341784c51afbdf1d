package experiments

import (
	"fmt"
	"math"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
)

// SensitivityPoint is one τ0 setting of the sensitivity sweep.
type SensitivityPoint struct {
	// Multiplier scales the optimal τ0.
	Multiplier float64
	// Tau0 is the resulting computation interval in minutes.
	Tau0 float64
	// Predicted is the Dauwe-model efficiency at this interval.
	Predicted float64
	// Sim is the simulated efficiency.
	Sim stats.Summary
}

// SensitivityResult shows how efficiency degrades as the computation
// interval moves away from the optimum — the practical answer to "how
// much does interval optimization matter, and how flat is the optimum?".
type SensitivityResult struct {
	System string
	// Plan is the optimal plan whose τ0 the sweep perturbs (counts and
	// levels held fixed).
	Plan   pattern.Plan
	Points []SensitivityPoint
}

// DefaultSensitivityMultipliers spans 1/8× to 8× the optimum.
var DefaultSensitivityMultipliers = []float64{
	0.125, 0.25, 0.5, 1 / math.Sqrt2, 1, math.Sqrt2, 2, 4, 8,
}

// Sensitivity runs the τ0 sensitivity sweep on one Table I system.
func Sensitivity(opt Options, systemName string, multipliers []float64) (*SensitivityResult, error) {
	sys, err := system.ByName(systemName)
	if err != nil {
		return nil, err
	}
	if len(multipliers) == 0 {
		multipliers = DefaultSensitivityMultipliers
	}
	tech, err := newTechnique("dauwe", opt.Fast)
	if err != nil {
		return nil, err
	}
	best, _, err := tech.Optimize(sys)
	if err != nil {
		return nil, err
	}
	trials := opt.trials(200)
	seed := rng.Campaign(opt.seed(), "sensitivity")
	out := &SensitivityResult{System: systemName, Plan: best}
	for _, m := range multipliers {
		if !(m > 0) {
			return nil, fmt.Errorf("experiments: sensitivity multiplier %v must be positive", m)
		}
		plan := best
		plan.Tau0 = best.Tau0 * m
		pred, err := tech.Predict(sys, plan)
		if err != nil {
			return nil, err
		}
		c, err := opt.runCampaign(sim.Campaign{
			Scenario: sim.Scenario{
				System: sys, Plan: plan, MaxWallFactor: opt.wallFactor(),
			},
			Trials:  trials,
			Seed:    seed.Scenario(fmt.Sprintf("%s/x%g", systemName, m)),
			Workers: opt.Workers,
		}, Cell{System: sys.Name, Technique: fmt.Sprintf("x%g", m)})
		if err != nil {
			return nil, err
		}
		opt.log("sensitivity %s ×%g: τ0=%.3f pred=%.3f sim=%.3f",
			systemName, m, plan.Tau0, pred.Efficiency, c.Sim.Efficiency.Mean)
		out.Points = append(out.Points, SensitivityPoint{
			Multiplier: m,
			Tau0:       plan.Tau0,
			Predicted:  pred.Efficiency,
			Sim:        c.Sim.Efficiency,
		})
	}
	return out, nil
}
