// Package daly implements the classic single-level checkpoint/restart
// models: Young's first-order optimum interval [10] and Daly's
// higher-order estimate with his complete expected-runtime formula [11].
// In the paper's comparison this technique always checkpoints to the top
// (PFS) level and every failure, of any severity, restarts from there.
package daly

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/system"
)

func init() {
	model.Register(model.Info{
		Name:      "daly",
		Summary:   "single-level C/R with Daly's higher-order optimum interval",
		Citation:  "Daly [11]",
		MaxLevels: 1,
	}, func() model.Technique { return New() })
}

// Technique is Daly's traditional checkpoint/restart model + optimizer.
type Technique struct{}

// New returns the technique.
func New() *Technique { return &Technique{} }

// Name implements model.Model.
func (*Technique) Name() string { return "daly" }

// YoungInterval returns Young's first-order optimum computation interval
// sqrt(2·δ·M) for checkpoint cost δ and MTBF M.
func YoungInterval(delta, mtbf float64) float64 {
	return math.Sqrt(2 * delta * mtbf)
}

// DalyInterval returns Daly's higher-order optimum computation interval
// for checkpoint cost δ and MTBF M:
//
//	τ = sqrt(2δM)·[1 + (1/3)·sqrt(δ/2M) + (1/9)·(δ/2M)] − δ   for δ < 2M
//	τ = M                                                      otherwise
func DalyInterval(delta, mtbf float64) float64 {
	if delta >= 2*mtbf {
		return mtbf
	}
	r := delta / (2 * mtbf)
	return float64(math.Sqrt(2*delta*mtbf)*(1+math.Sqrt(r)/3+r/9)) - delta
}

// ExpectedTime evaluates Daly's complete expected-runtime formula for an
// application of length tb using computation interval tau, checkpoint
// cost delta, restart cost restart, and system MTBF m:
//
//	T = M·e^{R/M}·(e^{(τ+δ)/M} − 1)·T_B/τ
func ExpectedTime(tb, tau, delta, restart, mtbf float64) float64 {
	if !(tau > 0) {
		return math.Inf(1)
	}
	return mtbf * math.Exp(restart/mtbf) * math.Expm1((tau+delta)/mtbf) * tb / tau
}

// Predict evaluates the model for a single-level plan. The plan must use
// exactly one level (traditional checkpoint/restart); multi-level plans
// are outside this model's domain.
func (*Technique) Predict(sys *system.System, plan pattern.Plan) (model.Prediction, error) {
	if err := plan.Validate(sys); err != nil {
		return model.Prediction{}, err
	}
	if plan.NumUsed() != 1 {
		return model.Prediction{}, fmt.Errorf("daly: single-level model cannot predict a %d-level plan", plan.NumUsed())
	}
	lvl := sys.Levels[plan.Levels[0]-1]
	// Any failure severity above the used level destroys the checkpoint
	// data; Daly's model has no notion of that, so his technique always
	// uses the top level where every severity is recoverable. For
	// completeness Predict still evaluates lower single levels, with the
	// full failure rate (the classic model's assumption).
	t := ExpectedTime(sys.BaselineTime, plan.Tau0, lvl.Checkpoint, lvl.Restart, sys.MTBF)
	return model.NewPrediction(sys.BaselineTime, t), nil
}

// Optimize returns the single-level PFS plan at Daly's higher-order
// optimum interval, with the interval clamped to (0, T_B].
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	top := sys.NumLevels()
	delta := sys.Levels[top-1].Checkpoint
	tau := DalyInterval(delta, sys.MTBF)
	if tau > sys.BaselineTime {
		tau = sys.BaselineTime
	}
	if !(tau > 0) {
		tau = delta
	}
	plan := pattern.Plan{Tau0: tau, Levels: []int{top}}
	pred, err := t.Predict(sys, plan)
	return plan, pred, err
}

var _ model.Technique = (*Technique)(nil)

func init() {
	model.Register(model.Info{
		Name:      "young",
		Summary:   "single-level C/R at Young's first-order interval sqrt(2δM)",
		Citation:  "Young [10]",
		MaxLevels: 1,
	}, func() model.Technique { return NewYoung() })
}

// Young is Young's first-order single-level technique [10]: the same
// expected-time model as Daly's, optimized at the first-order interval
// sqrt(2δM). Registered as "young" for completeness; the paper's
// comparison uses Daly's higher-order refinement.
type Young struct{ Technique }

// NewYoung returns the first-order technique.
func NewYoung() *Young { return &Young{} }

// Name implements model.Model.
func (*Young) Name() string { return "young" }

// Optimize places the single PFS-level checkpoint at Young's first-order
// interval.
func (y *Young) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	top := sys.NumLevels()
	tau := YoungInterval(sys.Levels[top-1].Checkpoint, sys.MTBF)
	if tau > sys.BaselineTime {
		tau = sys.BaselineTime
	}
	plan := pattern.Plan{Tau0: tau, Levels: []int{top}}
	pred, err := y.Predict(sys, plan)
	return plan, pred, err
}

var _ model.Technique = (*Young)(nil)
