// Package adaptive provides an online checkpoint-interval controller —
// the natural extension of the paper's offline optimization (and the
// direction of Di et al.'s online work [17]). The controller starts from
// a believed system description (whose failure rates may be
// miscalibrated), estimates the true per-severity rates from observed
// failures with a Bayesian (Gamma-prior) estimator, and periodically
// re-optimizes the checkpoint intervals with the paper's prediction
// model for the *remaining* work.
//
// It plugs into the simulator's PlanController hook: the simulator
// reports failures, and after each successful checkpoint the controller
// may swap the active plan.
package adaptive

import (
	"errors"
	"fmt"

	"repro/internal/model/dauwe"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/system"
)

// Estimator tracks per-severity failure rates online. It is a conjugate
// Gamma-Poisson estimate: the believed rate enters as a pseudo-
// observation window of PriorMinutes, so early estimates are anchored to
// the belief and converge to the empirical rate as evidence accumulates.
type Estimator struct {
	priorMinutes float64
	believed     []float64 // per-severity believed rates
	counts       []int
	lastNow      float64
	observedMin  float64
}

// NewEstimator builds an estimator for a believed system. priorMinutes
// is the weight of the belief expressed as minutes of pseudo-observation
// (e.g. 3× the believed MTBF); it must be positive.
func NewEstimator(believed *system.System, priorMinutes float64) (*Estimator, error) {
	if err := believed.Validate(); err != nil {
		return nil, err
	}
	if !(priorMinutes > 0) {
		return nil, fmt.Errorf("adaptive: prior weight %v must be positive", priorMinutes)
	}
	e := &Estimator{
		priorMinutes: priorMinutes,
		counts:       make([]int, believed.NumLevels()),
	}
	for sev := 1; sev <= believed.NumLevels(); sev++ {
		e.believed = append(e.believed, believed.LevelRate(sev))
	}
	return e, nil
}

// Observe records a failure at simulated time now.
func (e *Estimator) Observe(now float64, severity int) {
	if severity >= 1 && severity <= len(e.counts) {
		e.counts[severity-1]++
	}
	e.advance(now)
}

// advance extends the observation window to now (times are absolute
// simulated minutes and monotone).
func (e *Estimator) advance(now float64) {
	if now > e.lastNow {
		e.observedMin += now - e.lastNow
		e.lastNow = now
	}
}

// Rate returns the posterior-mean rate of a 1-based severity:
// (believed·prior + count) / (prior + observed). The product is rounded
// (float64(...)) so that no GOARCH fuses it into the addition.
func (e *Estimator) Rate(severity int) float64 {
	i := severity - 1
	return (float64(e.believed[i]*e.priorMinutes) + float64(e.counts[i])) /
		(e.priorMinutes + e.observedMin)
}

// TotalFailures returns the number of observed failures.
func (e *Estimator) TotalFailures() int {
	n := 0
	for _, c := range e.counts {
		n += c
	}
	return n
}

// EstimatedSystem materializes the current estimate as a system
// description with the given remaining baseline time.
func (e *Estimator) EstimatedSystem(template *system.System, remaining float64) *system.System {
	out := template.Clone()
	var total float64
	rates := make([]float64, len(e.believed))
	for sev := 1; sev <= len(rates); sev++ {
		rates[sev-1] = e.Rate(sev)
		total += rates[sev-1]
	}
	out.MTBF = 1 / total
	for i := range out.Levels {
		out.Levels[i].SeverityProb = rates[i] / total
	}
	out.BaselineTime = remaining
	out.Name = template.Name + "/estimated"
	return out
}

// Controller is the online re-optimizer; it implements
// sim.PlanController.
type Controller struct {
	believed  *system.System
	estimator *Estimator
	technique *dauwe.Technique

	// ReplanEvery is the number of newly observed failures required
	// before the next re-optimization (default 16).
	ReplanEvery int
	// MinRemaining stops replanning when less than this much work is
	// left (not worth the optimization; default 1 minute).
	MinRemaining float64

	sinceReplan int
	replans     int
}

// Options tunes a controller.
type Options struct {
	// PriorMinutes weights the initial belief (default 3× believed
	// MTBF).
	PriorMinutes float64
	// ReplanEvery failures between re-optimizations (default 16).
	ReplanEvery int
	// Technique overrides the prediction model settings; nil uses a
	// reduced-resolution Dauwe optimizer suitable for in-loop use.
	Technique *dauwe.Technique
}

// NewController builds a controller for a believed system description.
func NewController(believed *system.System, opt Options) (*Controller, error) {
	if believed == nil {
		return nil, errors.New("adaptive: nil system")
	}
	prior := opt.PriorMinutes
	if prior == 0 {
		prior = 3 * believed.MTBF
	}
	est, err := NewEstimator(believed, prior)
	if err != nil {
		return nil, err
	}
	tech := opt.Technique
	if tech == nil {
		tech = dauwe.New()
		// In-loop resolution: the controller optimizes many times per
		// trial, so trade a little optimality for speed.
		tech.Tau0Points = 24
		tech.CountVals = []int{0, 1, 2, 4, 8, 16, 32}
	}
	replanEvery := opt.ReplanEvery
	if replanEvery <= 0 {
		replanEvery = 16
	}
	return &Controller{
		believed:     believed,
		estimator:    est,
		technique:    tech,
		ReplanEvery:  replanEvery,
		MinRemaining: 1,
	}, nil
}

// InitialPlan optimizes for the believed system — what a static deploy
// would run forever.
func (c *Controller) InitialPlan() (pattern.Plan, error) {
	plan, _, err := c.technique.Optimize(c.believed)
	return plan, err
}

// OnFailure implements sim.PlanController.
func (c *Controller) OnFailure(now float64, severity int) {
	c.estimator.Observe(now, severity)
	c.sinceReplan++
}

// Replan implements sim.PlanController.
func (c *Controller) Replan(now, progress float64) (pattern.Plan, bool) {
	c.estimator.advance(now)
	if c.sinceReplan < c.ReplanEvery {
		return pattern.Plan{}, false
	}
	remaining := c.believed.BaselineTime - progress
	if remaining < c.MinRemaining {
		return pattern.Plan{}, false
	}
	est := c.estimator.EstimatedSystem(c.believed, remaining)
	plan, _, err := c.technique.Optimize(est)
	if err != nil {
		// Estimation produced an un-optimizable system; keep the
		// current plan and try again after more evidence.
		return pattern.Plan{}, false
	}
	c.sinceReplan = 0
	c.replans++
	return plan, true
}

// Replans returns how many times the controller changed the plan.
func (c *Controller) Replans() int { return c.replans }

// Estimator exposes the rate estimator (for reporting).
func (c *Controller) Estimator() *Estimator { return c.estimator }

var _ sim.PlanController = (*Controller)(nil)
