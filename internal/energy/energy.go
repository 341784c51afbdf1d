// Package energy extends the performance models with the energy
// dimension studied by Balaprakash et al. [19] — the source of the
// paper's test system B. Activity-dependent per-node power draws map an
// execution-time breakdown (either the simulator's measured one or the
// Dauwe model's predicted one) to machine energy, and an energy-aware
// optimizer picks checkpoint intervals minimizing predicted energy or
// energy-delay product instead of expected runtime.
//
// The interesting physics: checkpoint/restart I/O usually draws less
// power than computation, so an energy-optimal plan tolerates more
// checkpointing overhead than a time-optimal one whenever the extra
// checkpoints buy fewer re-executed (full-power) compute minutes.
package energy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/model/dauwe"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/system"
)

// Power is the per-node power draw by activity, in watts.
type Power struct {
	// ComputeWatts applies to useful computation and re-computation.
	ComputeWatts float64
	// IOWatts applies to checkpoint writes and restart reads,
	// successful or not.
	IOWatts float64
}

// Validate checks the power figures.
func (p Power) Validate() error {
	if !(p.ComputeWatts > 0) || !(p.IOWatts > 0) {
		return errors.New("energy: power draws must be positive")
	}
	return nil
}

// Model converts time breakdowns into machine energy.
type Model struct {
	Power Power
	// Nodes is the machine size; energy scales linearly with it.
	Nodes int
}

// Validate checks the model.
func (m Model) Validate() error {
	if m.Nodes <= 0 {
		return fmt.Errorf("energy: %d nodes", m.Nodes)
	}
	return m.Power.Validate()
}

// joules converts (minutes of compute-time, minutes of io-time) to
// machine energy.
func (m Model) joules(computeMin, ioMin float64) float64 {
	const secPerMin = 60
	// Each product is rounded (float64(...)) so that no GOARCH fuses it
	// into the addition.
	perNode := float64(computeMin*secPerMin*m.Power.ComputeWatts) + float64(ioMin*secPerMin*m.Power.IOWatts)
	return perNode * float64(m.Nodes)
}

// OfSim returns the machine energy of a simulated trial breakdown, in
// joules.
func (m Model) OfSim(b sim.Breakdown) float64 {
	return m.joules(b.UsefulCompute+b.LostCompute,
		b.CheckpointOK+b.CheckpointFail+b.RestartOK+b.RestartFail)
}

// OfPrediction returns the machine energy of a Dauwe-model predicted
// breakdown, in joules.
func (m Model) OfPrediction(b dauwe.Breakdown) float64 {
	return m.joules(b.Compute+b.Recompute,
		b.CheckpointOK+b.CheckpointFail+b.RestartOK+b.RestartFail)
}

// Objective selects what the energy-aware optimizer minimizes.
type Objective int

const (
	// MinEnergy minimizes predicted machine energy.
	MinEnergy Objective = iota
	// MinEnergyDelay minimizes predicted energy × predicted time.
	MinEnergyDelay
)

// Optimizer searches checkpoint plans with the Dauwe prediction model
// under an energy objective.
type Optimizer struct {
	Model     Model
	Objective Objective
	// Technique supplies the underlying prediction model and the
	// sweep's settings; nil uses dauwe defaults.
	Technique *dauwe.Technique
}

// Result reports the selected plan with both of its predicted costs.
type Result struct {
	Plan pattern.Plan
	// Time is the predicted execution-time side.
	Time model.Prediction
	// Joules is the predicted machine energy.
	Joules float64
}

// Optimize selects the plan minimizing the energy objective.
func (o *Optimizer) Optimize(sys *system.System) (Result, error) {
	if err := o.Model.Validate(); err != nil {
		return Result{}, err
	}
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	tech := o.Technique
	if tech == nil {
		tech = dauwe.New()
	}
	space := tech.Space(sys, optimize.PrefixLevelSets(sys.NumLevels()))
	res, err := optimize.Sweep(space, func(p pattern.Plan) (float64, bool) {
		_, bk, err := tech.PredictDetailed(sys, p)
		if err != nil {
			return 0, false
		}
		j := o.Model.OfPrediction(bk)
		if !(j > 0) || math.IsNaN(j) {
			return 0, false
		}
		if o.Objective == MinEnergyDelay {
			return j * bk.Total(), true
		}
		return j, true
	})
	if err != nil {
		return Result{}, err
	}
	pred, bk, err := tech.PredictDetailed(sys, res.Plan)
	if err != nil {
		return Result{}, err
	}
	return Result{Plan: res.Plan, Time: pred, Joules: o.Model.OfPrediction(bk)}, nil
}

// Tradeoff compares the time-optimal and energy-optimal plans for a
// system: predicted time and energy of both, the currency of [19]'s
// analysis.
type Tradeoff struct {
	TimeOptimal   Result
	EnergyOptimal Result
}

// Compare runs both optimizations.
func Compare(sys *system.System, m Model) (Tradeoff, error) {
	if err := m.Validate(); err != nil {
		return Tradeoff{}, err
	}
	tech := dauwe.New()
	plan, pred, err := tech.Optimize(sys)
	if err != nil {
		return Tradeoff{}, err
	}
	_, bk, err := tech.PredictDetailed(sys, plan)
	if err != nil {
		return Tradeoff{}, err
	}
	timeOpt := Result{Plan: plan, Time: pred, Joules: m.OfPrediction(bk)}
	energyOpt, err := (&Optimizer{Model: m}).Optimize(sys)
	if err != nil {
		return Tradeoff{}, err
	}
	return Tradeoff{TimeOptimal: timeOpt, EnergyOptimal: energyOpt}, nil
}
