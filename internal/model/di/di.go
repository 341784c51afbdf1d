// Package di implements the two-level multilevel checkpointing model of
// Di, Robert, Vivien and Cappello [17] in the offline pattern-based
// variant the paper compares against.
//
// Fidelity notes (paper Sections II-C, IV-C, IV-G):
//
//   - the model considers the application's execution time T_B (like the
//     paper's model, unlike Moody's), so it may skip the PFS level for
//     short applications;
//   - it assumes checkpoints and restarts are FAILURE-FREE — the
//     documented cause of its optimistic efficiency predictions
//     (Figure 6 shows it overestimating by up to ~14 %);
//   - it only understands two checkpoint levels: on a system with more,
//     it uses the top two (levels L−1 and L) with all lower severity
//     mass aggregated into level L−1 (Section IV-C).
//
// Structurally the prediction is the paper's hierarchical recursion with
// the failed-checkpoint and failed-restart terms (Eqns. 8–10, 12, 14)
// removed, which is exactly the failure-free-C/R assumption.
package di

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

func init() {
	model.Register(model.Info{
		Name:      "di",
		Summary:   "two-level offline pattern model; failure-free C/R, knows T_B",
		Citation:  "Di, Robert, Vivien, Cappello [17]",
		MaxLevels: 2,
	}, func() model.Technique { return New() })
}

// Technique is the Di et al. two-level model + optimizer.
type Technique struct {
	// Settings tune the optimizer sweep.
	optimize.Settings
}

// New returns the technique with reproduction settings.
func New() *Technique {
	return &Technique{optimize.Settings{Tau0Points: 96, CountVals: optimize.DefaultCounts()}}
}

// Name implements model.Model.
func (*Technique) Name() string { return "di" }

// Predict evaluates the failure-free-C/R two-level recursion. Plans may
// use at most two levels (the model's domain).
func (*Technique) Predict(sys *system.System, plan pattern.Plan) (model.Prediction, error) {
	if err := plan.Validate(sys); err != nil {
		return model.Prediction{}, err
	}
	if plan.NumUsed() > 2 {
		return model.Prediction{}, fmt.Errorf("di: two-level model cannot predict a %d-level plan", plan.NumUsed())
	}
	t, level, ok := expectedTime(sys, plan)
	if !ok {
		return model.Prediction{}, rejection(sys, plan, level)
	}
	return model.NewPrediction(sys.BaselineTime, t), nil
}

// rejection formats the error for a plan expectedTime refused at level
// (0: degenerate top period count). The sweep never calls it.
func rejection(sys *system.System, plan pattern.Plan, level int) error {
	if level == 0 {
		return fmt.Errorf("di: degenerate top period count %v", plan.TopPeriods(sys.BaselineTime))
	}
	return fmt.Errorf("di: model diverged at level %d for plan %v", level, plan)
}

// expectedTime is the hierarchical recursion with α_i = ζ_i = 0:
// checkpoints and restarts never fail and never lose progress. ok=false
// rejects the plan without allocating or formatting anything: level is
// then the 1-based level at which the recursion diverged, or 0 for a
// degenerate top period count (see rejection).
func expectedTime(sys *system.System, plan pattern.Plan) (t float64, level int, ok bool) {
	nTop := plan.TopPeriods(sys.BaselineTime)
	if !(nTop > 0) || math.IsInf(nTop, 1) {
		return 0, 0, false
	}

	ell := plan.NumUsed()
	tau := plan.Tau0
	lo := 1
	for i := 0; i < ell; i++ {
		// Severity mass handled by this level: classes above the
		// previous used level restart from this level's checkpoint.
		u := plan.Levels[i]
		var li float64
		for sev := lo; sev <= u; sev++ {
			li += float64(sys.LevelRate(sev))
		}
		lo = u + 1
		delta := sys.Levels[u-1].Checkpoint
		restart := sys.Levels[u-1].Restart

		var nCk, nIv float64
		if i < ell-1 {
			nCk = float64(plan.Counts[i])
			nIv = nCk + 1
		} else {
			nCk = nTop
			nIv = nTop
		}

		gamma := dist.RetryCount(tau, li)
		tWTau := float64(gamma * dist.TruncExp(tau, li) * nIv)
		tCk := float64(nCk * delta)
		// Failure-free C/R: only restarts triggered by computation
		// failures, each succeeding on the first attempt.
		beta := gamma * nIv
		tR := float64(beta * restart)

		tau = float64(tau*nIv) + tCk + tR + tWTau
		if math.IsNaN(tau) {
			return 0, i + 1, false
		}
	}
	var restRate float64
	for sev := lo; sev <= sys.NumLevels(); sev++ {
		restRate += float64(sys.LevelRate(sev))
	}
	if restRate > 0 {
		tau += float64(dist.RetryCount(tau, restRate) * dist.TruncExp(tau, restRate))
	}
	return tau, 0, true
}

// LevelSets implements optimize.Tunable: the two-level plan family over
// the system's top two levels (Section IV-C), both levels, the lower
// alone, or the PFS alone (the last two cover the short-application
// behavior of Section IV-F).
func (*Technique) LevelSets(sys *system.System) [][]int {
	top := sys.NumLevels()
	if top >= 2 {
		return [][]int{{top - 1, top}, {top - 1}, {top}}
	}
	return [][]int{{top}}
}

// Optimize sweeps the level sets of LevelSets.
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	res, err := optimize.Sweep(t.Space(sys, t.LevelSets(sys)), sweepObjective(sys))
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	return res.Plan, model.NewPrediction(sys.BaselineTime, res.ExpectedTime), nil
}

// sweepObjective is the sweep's objective: the recursion with rejected
// plans turned into ok=false. It allocates nothing and is safe for
// concurrent use.
func sweepObjective(sys *system.System) optimize.Objective {
	return func(p pattern.Plan) (float64, bool) {
		v, _, ok := expectedTime(sys, p)
		return v, ok && v > 0
	}
}

var _ model.Technique = (*Technique)(nil)
