// Package dauwe implements the paper's primary contribution: the
// hierarchical, continuous-equation execution-time prediction model for
// pattern-based multilevel checkpointing (Section III, Eqns. 1–14), and
// the brute-force checkpoint-interval optimizer built on it
// (Section III-C).
//
// The model estimates, level by level, the expected duration of each
// "execution interval" τ_{i+1} — the time between successive level-i+1
// checkpoints — as the sum of lower-level intervals plus the expected
// time of every event class the paper enumerates: successful and failed
// checkpoints, successful and failed restarts, and re-computation of work
// lost to failures during computation and during checkpoints. Unlike the
// prior models it is compared against, it accounts for failures that
// strike checkpoint and restart events themselves, and for the
// application's finite execution time T_B.
package dauwe

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

func init() {
	model.Register(model.Info{
		Name:     "dauwe",
		Summary:  "the paper's hierarchical continuous-equation model; models failed C/R and finite T_B",
		Citation: "Dauwe, Pasricha, Maciejewski, Siegel (the source paper)",
	}, func() model.Technique { return New() })
}

// Technique is the Dauwe et al. model + optimizer.
type Technique struct {
	// Settings tune the optimizer sweep.
	optimize.Settings
	// AllowLevelExclusion enables the Section IV-F behavior of
	// considering plans that skip the costly top levels. On by default
	// (it is one of the model's two headline advantages).
	AllowLevelExclusion bool
}

// New returns the technique with the evaluation settings used in the
// paper reproduction.
func New() *Technique {
	return &Technique{
		Settings:            optimize.Settings{Tau0Points: 96, CountVals: optimize.DefaultCounts()},
		AllowLevelExclusion: true,
	}
}

// Name implements model.Model.
func (*Technique) Name() string { return "dauwe" }

// Predict evaluates the hierarchical model for one plan (Eqns. 1–14).
func (*Technique) Predict(sys *system.System, plan pattern.Plan) (model.Prediction, error) {
	if err := plan.Validate(sys); err != nil {
		return model.Prediction{}, err
	}
	t, level, ok := newEvaluator(sys).expectedTime(plan, nil)
	if !ok {
		return model.Prediction{}, rejection(sys, plan, level)
	}
	return model.NewPrediction(sys.BaselineTime, t), nil
}

// Breakdown partitions a prediction into the paper's event classes
// (Section III-B), summed over all levels — the model-side analogue of
// the simulator's Figure 3 accounting. All values are minutes of the
// predicted execution.
type Breakdown struct {
	// Compute is the baseline computation T_B.
	Compute float64
	// Recompute is work re-executed after failures (T_Wτ + T_Wδ).
	Recompute float64
	// CheckpointOK is time in successful checkpoints (T_δ).
	CheckpointOK float64
	// CheckpointFail is time lost in failed checkpoints (T_δ').
	CheckpointFail float64
	// RestartOK is time in successful restarts (T_R).
	RestartOK float64
	// RestartFail is time lost in failed restarts (T_R').
	RestartFail float64
}

// Total returns the sum of all classes (== the predicted T_ML).
func (b Breakdown) Total() float64 {
	return b.Compute + b.Recompute + b.CheckpointOK + b.CheckpointFail +
		b.RestartOK + b.RestartFail
}

// PredictDetailed is Predict plus the per-event-class decomposition of
// the predicted time.
func (*Technique) PredictDetailed(sys *system.System, plan pattern.Plan) (model.Prediction, Breakdown, error) {
	if err := plan.Validate(sys); err != nil {
		return model.Prediction{}, Breakdown{}, err
	}
	var b Breakdown
	t, level, ok := newEvaluator(sys).expectedTime(plan, &b)
	if !ok {
		return model.Prediction{}, Breakdown{}, rejection(sys, plan, level)
	}
	return model.NewPrediction(sys.BaselineTime, t), b, nil
}

// evaluator runs the model for one system. It keeps what stays fixed
// between the optimizer sweep's neighbouring candidates:
//
//   - per level set: each used level's severity rate λ_i, its share S_i,
//     the residual rate, and the four plan-independent
//     transcendentals RetryCount/TruncExp of (δ_i, λ_c) and (R_i, λ_c);
//   - per depth d, for the last plan's τ0 and first d counts: τ_d, Eqn.
//     10's running sum Σ_{k<d} lost_k, S_d = Π_{k<d}(N_k+1), and level
//     d's τ_d terms γ_d, E(τ_d, λ_d) and lost_d once computed.
//
// A call resumes from the deepest state whose τ0, level set and counts
// the plan shares, so fixing one more count costs one level of Eqn. 4.
// The sweep enumerates counts depth first and gives its bound and its
// objective one evaluator, so the objective resumes at the top level.
// Each cached value is the expression the recursion would compute,
// evaluated once, and the remaining arithmetic runs in the recursion's
// order, so results are bitwise identical to a fresh evaluator's. Predict
// and PredictDetailed use a fresh evaluator per call; the sweep keeps one
// per worker. An evaluator is not safe for concurrent use.
type evaluator struct {
	sys        *system.System
	lambdaFull float64

	// Level-set cache: the level set it describes and its constants.
	loaded   bool
	levels   []int
	restRate float64
	lv       []levelConst

	// st[0..have] are the last plan's depth states; have < 0: none.
	st   []depthState
	have int
}

// levelConst holds one used level's plan-independent constants.
type levelConst struct {
	rate, share      float64 // λ_i, S_i = λ_i/λ
	delta, restart   float64
	ckRetry, ckTrunc float64 // RetryCount, TruncExp of (δ_i, λ_c), λ_c = Σ_{j<=i} λ_j
	rRetry, rTrunc   float64 // RetryCount, TruncExp of (R_i, λ_c)
}

// depthState is the recursion once a plan's first d counts are fixed.
type depthState struct {
	count     int     // N_{d−1}, the count fixed last (d ≥ 1)
	tau       float64 // τ_d: τ0 at d = 0, then Eqn. 4 for level d−1
	lostSum   float64 // Σ_{k<d} lost_k
	intervals int     // S_d = Π_{k<d}(N_k+1) τ0 intervals per τ_d

	// Level d's τ_d terms, filled by the first level call.
	termsOK bool
	gamma   float64 // Eqn. 5: γ_d = RetryCount(τ_d, λ_d)
	trunc   float64 // E(τ_d, λ_d)
	lost    float64 // Eqn. 10 summand: (τ_d + γ_d·E(τ_d, λ_d))·λ_d/λ
}

type levelTerms struct {
	tCk, tCkFail, tR, tRFail, tWTau, tWCk, nIv float64
}

func newEvaluator(sys *system.System) *evaluator {
	n := sys.NumLevels()
	return &evaluator{
		sys:        sys,
		lambdaFull: sys.Lambda(),
		levels:     make([]int, 0, n),
		lv:         make([]levelConst, n),
		st:         make([]depthState, n),
		have:       -1,
	}
}

// loadLevels loads the level-set constants for levels. A new level set
// drops the depth states: they depend on λ_i and S_i.
func (e *evaluator) loadLevels(levels []int) {
	e.loaded = true
	e.levels = append(e.levels[:0], levels...)
	e.have = -1
	ell := len(levels)
	if len(e.lv) < ell {
		e.lv = make([]levelConst, ell)
		e.st = make([]depthState, ell)
	}
	sys := e.sys
	// Severity mass handled by each used level: classes between the
	// previous used level (exclusive) and this one (inclusive) restart
	// from this level's checkpoint. Every product is rounded explicitly
	// (float64(...)), here and below, so that no GOARCH fuses it into an
	// addition.
	lo := 1
	var lambdaC float64
	for i, u := range levels {
		var rate float64
		for sev := lo; sev <= u; sev++ {
			rate += float64(sys.LevelRate(sev))
		}
		lo = u + 1
		lambdaC += rate
		delta := sys.Levels[u-1].Checkpoint
		restart := sys.Levels[u-1].Restart
		e.lv[i] = levelConst{
			rate: rate, share: rate / e.lambdaFull,
			delta: delta, restart: restart,
			ckRetry: dist.RetryCount(delta, lambdaC), ckTrunc: dist.TruncExp(delta, lambdaC),
			rRetry: dist.RetryCount(restart, lambdaC), rTrunc: dist.TruncExp(restart, lambdaC),
		}
	}
	// Residual severities above the top used level lose everything.
	var restRate float64
	for sev := lo; sev <= sys.NumLevels(); sev++ {
		restRate += float64(sys.LevelRate(sev))
	}
	e.restRate = restRate
}

// rejection formats the error for a plan expectedTime refused at level
// (0: degenerate top period count). The sweep never calls it.
func rejection(sys *system.System, plan pattern.Plan, level int) error {
	if level == 0 {
		return fmt.Errorf("dauwe: degenerate top period count %v", plan.TopPeriods(sys.BaselineTime))
	}
	return fmt.Errorf("dauwe: model diverged at level %d for plan %v", level, plan)
}

// descend brings the depth states up to depth d of plan, its first d
// counts fixed, resuming from the deepest state it shares with the
// states already held. ok=false when τ went NaN on the way: level is
// then the 1-based level that diverged. When terms is non-nil every
// level is recomputed and its terms appended.
func (e *evaluator) descend(plan pattern.Plan, d int, terms *[]levelTerms) (level int, ok bool) {
	if !e.loaded || !slices.Equal(e.levels, plan.Levels) {
		e.loadLevels(plan.Levels)
	}
	if e.have < 0 || terms != nil || math.Float64bits(e.st[0].tau) != math.Float64bits(plan.Tau0) {
		e.st[0] = depthState{tau: plan.Tau0, intervals: 1}
		e.have = 0
	}
	h := 0
	for h < e.have && h < d && e.st[h+1].count == plan.Counts[h] {
		h++
	}
	if h < e.have && h < d {
		e.have = h // the plan leaves the held states at depth h
	}
	for ; ; h++ {
		s := &e.st[h]
		if math.IsNaN(s.tau) {
			return h, false
		}
		if h == d {
			return 0, true
		}
		// Below the top a level-(h+1) interval holds N_h checkpoints
		// and N_h+1 intervals (DESIGN.md §2.1).
		c := plan.Counts[h]
		nCk := float64(c)
		tau := e.level(h, s, nCk, nCk+1, terms)
		e.st[h+1] = depthState{count: c, tau: tau, lostSum: s.lostSum + s.lost, intervals: s.intervals * (c + 1)}
		e.have = h + 1
	}
}

// level is one step of Eqn. 4: used level i's execution interval s.tau
// occurs nIv times, with nCk level-i checkpoints, in one level-(i+1)
// execution interval, whose expected length it returns. Its terms are
// appended to terms when that is non-nil.
func (e *evaluator) level(i int, s *depthState, nCk, nIv float64, terms *[]levelTerms) float64 {
	c := &e.lv[i]

	// Eqn. 5: expected level-i failures per τ_i interval, with
	// E(τ_i, λ_i) and the Eqn. 10 summand, once per depth state.
	if !s.termsOK {
		s.termsOK = true
		s.gamma = dist.RetryCount(s.tau, c.rate)
		s.trunc = dist.TruncExp(s.tau, c.rate)
		s.lost = float64((s.tau + float64(s.gamma*s.trunc)) * c.share)
	}
	gamma := s.gamma

	// Eqn. 6: recomputation of work lost during computation.
	tWTau := float64(float64(gamma*s.trunc) * nIv)

	// Eqn. 7: successful checkpoints.
	tCk := float64(nCk * c.delta)

	// Eqns. 8–9: failed checkpoints.
	alpha := float64(c.ckRetry * nCk)
	tCkFail := float64(alpha * c.ckTrunc)

	// Eqn. 10: progress lost to failed checkpoints — the interval
	// preceding the checkpoint plus its failure overhead, weighted
	// by each contributing severity share S_k.
	tWCk := float64((s.lostSum + s.lost) * alpha)

	// Eqn. 11: expected successful level-i restarts.
	siAlpha := float64(c.share * alpha)
	beta := siAlpha + float64(gamma*(siAlpha+nIv))

	// Eqns. 12–14: restart time, successful and failed.
	zeta := float64(c.rRetry * beta)
	tR := float64(beta * c.restart)
	tRFail := float64(zeta * c.rTrunc)

	if terms != nil {
		*terms = append(*terms, levelTerms{
			tCk: tCk, tCkFail: tCkFail, tR: tR, tRFail: tRFail,
			tWTau: tWTau, tWCk: tWCk, nIv: nIv,
		})
	}
	// Eqn. 4.
	return float64(s.tau*nIv) + tCk + tCkFail + tR + tRFail + tWTau + tWCk
}

// expectedTime runs the level-by-level recursion of Eqn. 4. ok=false
// rejects the plan without allocating or formatting anything: level is
// then the 1-based level at which the recursion diverged, or 0 for a
// degenerate top period count (see rejection). When bk is non-nil it
// accumulates the per-event-class decomposition; because each level's
// terms scale by the number of times that level's execution interval
// occurs in the whole run, per-level contributions are weighted by the
// occurrence count of their enclosing interval.
func (e *evaluator) expectedTime(plan pattern.Plan, bk *Breakdown) (t float64, level int, ok bool) {
	ell := plan.NumUsed()

	// N_L per Eqn. 3: number of top-level execution intervals.
	nTop := plan.TopPeriods(e.sys.BaselineTime)
	if !(nTop > 0) || math.IsInf(nTop, 1) {
		return 0, 0, false
	}

	var terms []levelTerms
	var rec *[]levelTerms
	if bk != nil {
		terms = make([]levelTerms, 0, ell)
		rec = &terms
	}
	if level, ok := e.descend(plan, ell-1, rec); !ok {
		return 0, level, false
	}
	// At the top a level-L interval holds N_L intervals and N_L
	// checkpoints (Eqn. 3's count; see DESIGN.md §2.1).
	tau := e.level(ell-1, &e.st[ell-1], nTop, nTop, rec)
	if math.IsNaN(tau) {
		return 0, ell, false
	}
	if bk != nil {
		// Each level-i term occurs once per level-(i+1) execution
		// interval; weight by how many such intervals the run contains.
		occ := 1.0
		for i := ell - 1; i >= 0; i-- {
			t := terms[i]
			bk.CheckpointOK += float64(occ * t.tCk)
			bk.CheckpointFail += float64(occ * t.tCkFail)
			bk.RestartOK += float64(occ * t.tR)
			bk.RestartFail += float64(occ * t.tRFail)
			bk.Recompute += float64(occ * (t.tWTau + t.tWCk))
			occ *= t.nIv
		}
		// occ is now the total number of τ0 intervals: their content is
		// exactly the baseline computation (Eqn. 3).
		bk.Compute = plan.Tau0 * occ
	}

	// Severities the plan cannot checkpoint against restart the whole
	// application from scratch: the expected time of a restart-from-
	// zero process over an exposure window of length τ is
	// τ + γ_rest·E(τ, λ_rest) = (e^{λ_rest·τ} - 1)/λ_rest.
	if r := e.restRate; r > 0 {
		loss := float64(dist.RetryCount(tau, r) * dist.TruncExp(tau, r))
		tau += loss
		if bk != nil {
			bk.Recompute += loss
		}
	}
	return tau, 0, true
}

// bound is the sweep's incremental lower bound (optimize.Bound) on the
// objective of every completion of prefix, with d = len(prefix.Counts):
//
//	T_B·τ_d/(τ0·S_d)·(1 − 1e-9)           while counts are free,
//	T_B·(τ_{ℓ−1} + δ_top)/(τ0·S)·(1 − 1e-9) once all are fixed,
//
// and +Inf once τ has gone NaN, because the objective rejects every
// completion then. Every Eqn. 4 term is ≥ 0 and rounding is monotone,
// so τ_{i+1} ≥ fl(τ_i·(N_i+1)) and T ≥ N_L·(τ_{ℓ−1} + δ_top); DESIGN.md
// §2.7 gives the argument and the margin. Fixing a count costs one
// level, whose state the objective then resumes from.
func (e *evaluator) bound(prefix pattern.Plan) float64 {
	d := len(prefix.Counts)
	if _, ok := e.descend(prefix, d, nil); !ok {
		return math.Inf(1)
	}
	s := &e.st[d]
	tau := s.tau
	if d == len(prefix.Levels)-1 {
		tau += e.lv[d].delta
	}
	return e.sys.BaselineTime * tau / (prefix.Tau0 * float64(s.intervals)) * (1 - 1e-9)
}

// Optimize implements the bounded brute-force search of Section III-C:
// every (τ0, N_1..N_{ℓ-1}) combination on the grid is considered, over
// the level-prefix family {1..ℓ} when level exclusion is enabled, and
// the plan with the smallest predicted execution time wins. The sweep is
// a branch-and-bound: after each count it fixes, the evaluator's bound
// skips every completion that cannot beat the best time so far, so most
// candidates are never evaluated, and the winner is the same.
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	res, err := optimize.SweepObjectives(t.Space(sys, t.LevelSets(sys)), func(int, *obs.Registry) (optimize.Objective, optimize.Bound) {
		return newSweepObjective(sys)
	})
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	return res.Plan, model.NewPrediction(sys.BaselineTime, res.ExpectedTime), nil
}

// LevelSets implements optimize.Tunable: the level-prefix family
// {1..ℓ} when level exclusion is enabled, else all levels.
func (t *Technique) LevelSets(sys *system.System) [][]int {
	if t.AllowLevelExclusion {
		return optimize.PrefixLevelSets(sys.NumLevels())
	}
	return [][]int{pattern.AllLevels(sys)}
}

// newSweepObjective builds one sweep worker's objective and bound around
// one evaluator, so that the objective resumes from the depth states the
// bound has just built.
func newSweepObjective(sys *system.System) (optimize.Objective, optimize.Bound) {
	e := newEvaluator(sys)
	return func(p pattern.Plan) (float64, bool) {
		v, _, ok := e.expectedTime(p, nil)
		return v, ok && v > 0
	}, e.bound
}

var _ model.Technique = (*Technique)(nil)
