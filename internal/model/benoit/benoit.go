// Package benoit implements the first-order multilevel checkpointing
// model of Benoit, Cavelan, Fèvre, Robert and Sun [18] as characterized
// by the paper's comparison (Sections II-C and IV-C):
//
//   - pattern-based with an arbitrary number of levels;
//   - steady-state: it optimizes the efficiency of one pattern period
//     and ignores the application's execution time T_B (so it never
//     skips the top level);
//   - checkpoints and restarts are FAILURE-FREE, and only failures
//     during computation are modeled;
//   - re-executed work is approximated to first order: a level-i failure
//     loses on average half of the level-i inter-checkpoint *work*
//     distance — the re-execution itself is assumed failure-free and
//     checkpoint overhead inside the re-executed span is not charged.
//
// These first-order approximations are the documented cause of the
// optimistic predictions and over-long computation intervals the paper
// reports for this technique, and of its accuracy degradation as the
// number of levels grows (the sharp Figure 2 drop on the four-level
// system B).
//
// The optimizer is [18]'s closed form (AnalyticPlan) and nothing else:
// the technique runs no sweep, so it has no sweep settings to tune.
package benoit

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/system"
)

func init() {
	model.Register(model.Info{
		Name:     "benoit",
		Summary:  "first-order multilevel pattern model; failure-free C/R, steady-state",
		Citation: "Benoit, Cavelan, Fèvre, Robert, Sun [18]",
	}, func() model.Technique { return New() })
}

// Technique is the Benoit et al. first-order model and its closed-form
// optimizer. It has no settings.
type Technique struct{}

// New returns the technique.
func New() *Technique { return &Technique{} }

// Name implements model.Model.
func (*Technique) Name() string { return "benoit" }

// periodTime returns the first-order expected time of one pattern period
// and the useful work it contains. Plans must use all system levels (the
// model is steady-state over a full multilevel pattern).
func periodTime(sys *system.System, plan pattern.Plan) (expected, work float64, err error) {
	if plan.NumUsed() != sys.NumLevels() {
		return 0, 0, fmt.Errorf("benoit: steady-state model requires all %d levels, plan uses %d",
			sys.NumLevels(), plan.NumUsed())
	}
	work = float64(plan.PeriodWork())
	counts := plan.CheckpointsPerPeriod()

	// Failure-free period length: work plus all checkpoint overhead.
	var overhead float64
	for i, c := range counts {
		overhead += float64(float64(c) * sys.Levels[plan.Levels[i]-1].Checkpoint)
	}
	expected = work + overhead

	// First-order failure waste: failures arrive only during the W
	// units of computation; a severity-i failure costs the level-i
	// restart plus re-execution of half the level-i inter-checkpoint
	// work distance.
	interCkptWork := plan.Tau0
	sizeIntervals := 1
	for i := 0; i < sys.NumLevels(); i++ {
		if i > 0 {
			sizeIntervals *= plan.Counts[i-1] + 1
			interCkptWork = plan.Tau0 * float64(sizeIntervals)
		}
		li := sys.LevelRate(i + 1)
		loss := float64(interCkptWork/2) + sys.Levels[i].Restart
		expected += float64(li * work * loss)
	}
	if math.IsNaN(expected) {
		return 0, 0, fmt.Errorf("benoit: model diverged for plan %v", plan)
	}
	return expected, work, nil
}

// Predict evaluates the first-order model. Because the model is
// steady-state, the predicted application time is T_B divided by the
// period efficiency.
func (*Technique) Predict(sys *system.System, plan pattern.Plan) (model.Prediction, error) {
	if err := plan.Validate(sys); err != nil {
		return model.Prediction{}, err
	}
	expected, work, err := periodTime(sys, plan)
	if err != nil {
		return model.Prediction{}, err
	}
	eff := work / expected
	if !(eff > 0) {
		return model.Prediction{}, fmt.Errorf("benoit: non-positive efficiency for plan %v", plan)
	}
	return model.NewPrediction(sys.BaselineTime, sys.BaselineTime/eff), nil
}

// AnalyticPlan builds the closed-form first-order pattern of [18]: each
// level's optimum inter-checkpoint work distance is the independent
// Young-style optimum W_l = sqrt(2·δ_l/λ_l); distances are made
// monotone and rounded onto the nested pattern lattice
// W_{l+1} = (N_l + 1)·W_l.
func AnalyticPlan(sys *system.System) (pattern.Plan, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, err
	}
	L := sys.NumLevels()
	w := make([]float64, L)
	for l := 0; l < L; l++ {
		rate := sys.LevelRate(l + 1)
		if rate <= 0 {
			// A severity that never fires wants no checkpoints of its
			// own: inherit the previous level's distance.
			if l > 0 {
				w[l] = w[l-1]
			} else {
				w[l] = sys.BaselineTime
			}
			continue
		}
		w[l] = math.Sqrt(2 * sys.Levels[l].Checkpoint / rate)
		if l > 0 && w[l] < w[l-1] {
			w[l] = w[l-1]
		}
	}
	plan := pattern.Plan{Tau0: w[0], Levels: pattern.AllLevels(sys)}
	if plan.Tau0 > sys.BaselineTime {
		plan.Tau0 = sys.BaselineTime
	}
	dist := plan.Tau0
	for l := 0; l < L-1; l++ {
		ratio := int(math.Round(w[l+1] / dist))
		if ratio < 1 {
			ratio = 1
		}
		plan.Counts = append(plan.Counts, ratio-1)
		dist *= float64(ratio)
	}
	return plan, nil
}

// Optimize returns the closed-form pattern of AnalyticPlan with the
// first-order model's prediction for it.
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	plan, err := AnalyticPlan(sys)
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	pred, err := t.Predict(sys, plan)
	return plan, pred, err
}

var _ model.Technique = (*Technique)(nil)
