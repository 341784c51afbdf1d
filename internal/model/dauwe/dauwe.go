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
	"context"
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
	// Tau0Points is the τ0 grid resolution of the optimizer sweep.
	Tau0Points int
	// CountVals is the N_i candidate set of the optimizer sweep.
	CountVals []int
	// AllowLevelExclusion enables the Section IV-F behavior of
	// considering plans that skip the costly top levels. On by default
	// (it is one of the model's two headline advantages).
	AllowLevelExclusion bool
	// Workers bounds optimizer parallelism (0 = GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives the optimizer sweep's telemetry
	// (candidates/evaluations/prunes). Not for use across concurrent
	// Optimize calls.
	Metrics *obs.Registry
	// Spans, when non-nil, receives the optimizer sweep's span tree
	// (see optimize.Space.Spans). Not for use across concurrent
	// Optimize calls.
	Spans *obs.Tracer
	// Context, when non-nil, cancels an in-flight Optimize sweep (see
	// optimize.Space.Context). Not for use across concurrent Optimize
	// calls.
	Context context.Context
}

// New returns the technique with the evaluation settings used in the
// paper reproduction.
func New() *Technique {
	return &Technique{
		Tau0Points:          96,
		CountVals:           optimize.DefaultCounts(),
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

// evaluator runs the model for one system. It caches what stays fixed
// between the optimizer sweep's neighbouring candidates:
//
//   - per level set: each used level's severity rate λ_i, its share S_i,
//     the residual rate, and the four plan-independent
//     transcendentals RetryCount/TruncExp of (δ_i, λ_c) and (R_i, λ_c);
//   - per level: γ_i, E(τ_i, λ_i) and level i's Eqn. 10 summand for the
//     last τ_i seen, keyed on τ_i's exact bits. The sweep's count
//     odometer turns its last digit fastest, so below the top level τ_i
//     rarely changes between calls.
//
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

	memo []levelMemo // per used level, keyed on τ_i
}

// levelConst holds one used level's plan-independent constants.
type levelConst struct {
	rate, share      float64 // λ_i, S_i = λ_i/λ
	delta, restart   float64
	ckRetry, ckTrunc float64 // RetryCount, TruncExp of (δ_i, λ_c), λ_c = Σ_{j<=i} λ_j
	rRetry, rTrunc   float64 // RetryCount, TruncExp of (R_i, λ_c)
}

// levelMemo is one level's one-entry memo of its τ_i-dependent terms.
type levelMemo struct {
	valid   bool
	tauBits uint64
	gamma   float64 // Eqn. 5: γ_i = RetryCount(τ_i, λ_i)
	trunc   float64 // E(τ_i, λ_i)
	lost    float64 // Eqn. 10 summand: (τ_i + γ_i·E(τ_i, λ_i))·S_i
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
		memo:       make([]levelMemo, n),
	}
}

// useLevels loads the level-set constants for levels, unless they are
// already loaded. A new level set invalidates the per-level memo: its
// entries depend on λ_i and S_i.
func (e *evaluator) useLevels(levels []int) {
	if e.loaded && slices.Equal(e.levels, levels) {
		return
	}
	e.loaded = true
	e.levels = append(e.levels[:0], levels...)
	ell := len(levels)
	if len(e.lv) < ell {
		e.lv = make([]levelConst, ell)
		e.memo = make([]levelMemo, ell)
	}
	sys := e.sys
	// Severity mass handled by each used level: classes between the
	// previous used level (exclusive) and this one (inclusive) restart
	// from this level's checkpoint.
	lo := 1
	var lambdaC float64
	for i, u := range levels {
		var rate float64
		for sev := lo; sev <= u; sev++ {
			rate += sys.LevelRate(sev)
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
		e.memo[i].valid = false
	}
	// Residual severities above the top used level lose everything.
	var restRate float64
	for sev := lo; sev <= sys.NumLevels(); sev++ {
		restRate += sys.LevelRate(sev)
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
	e.useLevels(plan.Levels)

	// N_L per Eqn. 3: number of top-level execution intervals.
	nTop := plan.TopPeriods(e.sys.BaselineTime)
	if !(nTop > 0) || math.IsInf(nTop, 1) {
		return 0, 0, false
	}

	tau := plan.Tau0
	var terms []levelTerms
	if bk != nil {
		terms = make([]levelTerms, 0, ell)
	}
	for i := 0; i < ell; i++ {
		c := &e.lv[i]

		// Checkpoint and interval counts inside one level-(i+1)
		// execution interval. The paper's recursion uses N_i
		// checkpoints and N_i+1 intervals below the top; at the top we
		// use N_L intervals and N_L checkpoints (Eqn. 3's count; see
		// DESIGN.md §2.1 for the indexing convention).
		var nCk, nIv float64
		if i < ell-1 {
			nCk = float64(plan.Counts[i])
			nIv = nCk + 1
		} else {
			nCk = nTop
			nIv = nTop
		}

		// Eqn. 5: expected level-i failures per τ_i interval, with
		// E(τ_i, λ_i) and the Eqn. 10 summand, from the memo.
		m := &e.memo[i]
		if bits := math.Float64bits(tau); !m.valid || m.tauBits != bits {
			m.valid, m.tauBits = true, bits
			m.gamma = dist.RetryCount(tau, c.rate)
			m.trunc = dist.TruncExp(tau, c.rate)
			m.lost = (tau + m.gamma*m.trunc) * c.share
		}
		gamma := m.gamma

		// Eqn. 6: recomputation of work lost during computation.
		tWTau := gamma * m.trunc * nIv

		// Eqn. 7: successful checkpoints.
		tCk := nCk * c.delta

		// Eqns. 8–9: failed checkpoints.
		alpha := c.ckRetry * nCk
		tCkFail := alpha * c.ckTrunc

		// Eqn. 10: progress lost to failed checkpoints — the interval
		// preceding the checkpoint plus its failure overhead, weighted
		// by each contributing severity share S_k.
		var tWCk float64
		for k := 0; k <= i; k++ {
			tWCk += e.memo[k].lost
		}
		tWCk *= alpha

		// Eqn. 11: expected successful level-i restarts.
		si := c.share
		beta := si*alpha + gamma*(si*alpha+nIv)

		// Eqns. 12–14: restart time, successful and failed.
		zeta := c.rRetry * beta
		tR := beta * c.restart
		tRFail := zeta * c.rTrunc

		// Eqn. 4.
		tau = tau*nIv + tCk + tCkFail + tR + tRFail + tWTau + tWCk
		if math.IsNaN(tau) {
			return 0, i + 1, false
		}
		if bk != nil {
			terms = append(terms, levelTerms{
				tCk: tCk, tCkFail: tCkFail, tR: tR, tRFail: tRFail,
				tWTau: tWTau, tWCk: tWCk, nIv: nIv,
			})
		}
	}
	if bk != nil {
		// Each level-i term occurs once per level-(i+1) execution
		// interval; weight by how many such intervals the run contains.
		occ := 1.0
		for i := ell - 1; i >= 0; i-- {
			t := terms[i]
			bk.CheckpointOK += occ * t.tCk
			bk.CheckpointFail += occ * t.tCkFail
			bk.RestartOK += occ * t.tR
			bk.RestartFail += occ * t.tRFail
			bk.Recompute += occ * (t.tWTau + t.tWCk)
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
		loss := dist.RetryCount(tau, r) * dist.TruncExp(tau, r)
		tau += loss
		if bk != nil {
			bk.Recompute += loss
		}
	}
	return tau, 0, true
}

// Optimize implements the bounded brute-force search of Section III-C:
// every (τ0, N_1..N_{ℓ-1}) combination on the grid is evaluated with the
// model, over the level-prefix family {1..ℓ} when level exclusion is
// enabled, and the plan with the smallest predicted execution time wins.
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	var sets [][]int
	if t.AllowLevelExclusion {
		sets = optimize.PrefixLevelSets(sys.NumLevels())
	} else {
		sets = [][]int{pattern.AllLevels(sys)}
	}
	space := optimize.Space{
		Tau0:       optimize.Tau0Grid(sys, t.Tau0Points),
		CountVals:  t.CountVals,
		LevelSets:  sets,
		Workers:    t.Workers,
		RefineTau0: true,
		Metrics:    t.Metrics,
		Spans:      t.Spans,
		Context:    t.Context,
	}
	res, err := optimize.SweepObjectives(space, func(int, *obs.Registry) optimize.Objective {
		return newSweepObjective(sys)
	})
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	return res.Plan, model.NewPrediction(sys.BaselineTime, res.ExpectedTime), nil
}

// newSweepObjective builds a goroutine-local sweep objective around its
// own evaluator, so consecutive candidates share the evaluator's caches.
func newSweepObjective(sys *system.System) optimize.Objective {
	e := newEvaluator(sys)
	return func(p pattern.Plan) (float64, bool) {
		v, _, ok := e.expectedTime(p, nil)
		return v, ok && v > 0
	}
}

// SetSweepMetrics directs the optimizer sweep's telemetry into reg
// (nil disables collection). Implements the optional interface the CLIs
// and experiment harness probe for.
func (t *Technique) SetSweepMetrics(reg *obs.Registry) { t.Metrics = reg }

// SetSweepSpans directs the optimizer sweep's span tree into tr (nil
// disables collection). Implements the optional interface the CLIs and
// experiment harness probe for.
func (t *Technique) SetSweepSpans(tr *obs.Tracer) { t.Spans = tr }

// SetSweepContext installs a cancellation context for the optimizer
// sweep (nil disables cancellation). Implements the optional interface
// the serving layer probes for.
func (t *Technique) SetSweepContext(ctx context.Context) { t.Context = ctx }

// SetSweepGrid overrides the optimizer search grid: tau0Points τ0 grid
// points (0 keeps the default) and countVals as the per-level count
// candidate set (nil keeps the default). Implements the optional
// interface the serving layer probes for.
func (t *Technique) SetSweepGrid(tau0Points int, countVals []int) {
	if tau0Points > 0 {
		t.Tau0Points = tau0Points
	}
	if len(countVals) > 0 {
		t.CountVals = countVals
	}
}

// SetSweepWorkers bounds optimizer parallelism (0 = GOMAXPROCS).
// Implements the optional interface the serving layer probes for.
func (t *Technique) SetSweepWorkers(n int) { t.Workers = n }

var _ model.Technique = (*Technique)(nil)
