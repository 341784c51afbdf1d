// Package moody reimplements the SCR Markov model of Moody, Bronevetsky,
// Mohror and de Supinski [5]: an exact Markov-chain expected-time
// analysis of one pattern period, used both to predict application
// efficiency and to brute-force-search checkpoint intervals.
//
// The two assumptions the paper isolates as the causes of this model's
// behavior are preserved faithfully (Sections IV-F and IV-G):
//
//   - steady-state objective: the model optimizes the efficiency of one
//     pattern period and is blind to the application's execution time
//     T_B, so it always schedules top-level checkpoints — even for
//     applications shorter than the mean time between top-severity
//     failures;
//   - pessimistic restart escalation: a failure occurring during a
//     level-i restart forces recovery from a level-i+1 checkpoint,
//     producing an unrealistic escalation of failure levels at extreme
//     scale and the systematic efficiency underestimation of Figure 6.
//
// Failures during checkpoints and restarts are modeled (the Markov chain
// makes that exact), which is why this model tracks the simulation much
// more closely than Di's or Benoit's on the hard systems.
package moody

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

func init() {
	model.Register(model.Info{
		Name:     "moody",
		Summary:  "exact SCR Markov-chain period model; steady-state, escalating restarts",
		Citation: "Moody, Bronevetsky, Mohror, de Supinski [5]",
	}, func() model.Technique { return New() })
}

// Technique is the Moody et al. SCR Markov model + optimizer.
type Technique struct {
	// Tau0Points is the τ0 grid resolution of the optimizer sweep.
	Tau0Points int
	// CountVals is the N_i candidate set of the optimizer sweep.
	CountVals []int
	// MaxPeriodIntervals bounds the period length the sweep evaluates
	// (the Markov solve is linear in period length).
	MaxPeriodIntervals int
	// Workers bounds optimizer parallelism (0 = GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives the optimizer sweep's telemetry
	// (candidates/evaluations/prunes plus the period-shape memo's
	// hit/miss counters). Not for use across concurrent Optimize calls.
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

// New returns the technique with reproduction settings.
func New() *Technique {
	return &Technique{
		Tau0Points:         64,
		CountVals:          optimize.DefaultCounts(),
		MaxPeriodIntervals: 512,
	}
}

// Name implements model.Model.
func (*Technique) Name() string { return "moody" }

// escalationChain returns the system's chain constants — one failure
// rate and restart time per level, Moody's escalation policy — with no
// segments yet.
func escalationChain(sys *system.System) *markov.Chain {
	c := &markov.Chain{Policy: markov.Escalate}
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		c.Rates = append(c.Rates, sys.LevelRate(sev))
		c.RestartTime = append(c.RestartTime, sys.Levels[sev-1].Restart)
	}
	return c
}

// BuildChain translates a full-level pattern plan into the Markov period
// chain under Moody's escalation policy. Exported for tests and for the
// simulator cross-validation harness.
func BuildChain(sys *system.System, plan pattern.Plan) (*markov.Chain, error) {
	if plan.NumUsed() != sys.NumLevels() {
		return nil, fmt.Errorf("moody: steady-state model requires all %d levels, plan uses %d",
			sys.NumLevels(), plan.NumUsed())
	}
	c := escalationChain(sys)
	n := plan.PeriodIntervals()
	c.Segments = make([]markov.Segment, 0, 2*n)
	for k := 0; k < n; k++ {
		c.Segments = append(c.Segments, markov.Segment{
			Kind: markov.Compute, Duration: plan.Tau0,
		})
		used := plan.LevelAfterInterval(k)
		lvl := plan.Levels[used]
		c.Segments = append(c.Segments, markov.Segment{
			Kind:     markov.Checkpoint,
			Duration: sys.Levels[lvl-1].Checkpoint,
			Level:    lvl,
		})
	}
	return c, nil
}

// PeriodEfficiency returns work/time for one pattern period.
func PeriodEfficiency(sys *system.System, plan pattern.Plan) (float64, error) {
	c, err := BuildChain(sys, plan)
	if err != nil {
		return 0, err
	}
	t, err := c.ExpectedPeriodTime()
	if err != nil {
		return 0, err
	}
	if math.IsInf(t, 1) {
		return 0, nil
	}
	return c.Work() / t, nil
}

// Predict evaluates the Markov model. Being steady-state, the predicted
// application time is T_B divided by the period efficiency.
func (*Technique) Predict(sys *system.System, plan pattern.Plan) (model.Prediction, error) {
	if err := plan.Validate(sys); err != nil {
		return model.Prediction{}, err
	}
	eff, err := PeriodEfficiency(sys, plan)
	if err != nil {
		return model.Prediction{}, err
	}
	if !(eff > 0) {
		return model.NewPrediction(sys.BaselineTime, math.Inf(1)), nil
	}
	return model.NewPrediction(sys.BaselineTime, sys.BaselineTime/eff), nil
}

// Optimize brute-force-searches full-level patterns for the best period
// efficiency, exactly as [5] describes ("a brute-force search of all
// possible checkpoint intervals"). Each sweep worker evaluates the
// Markov objective through a goroutine-local memo of period shapes and a
// reusable chain solver (see newSweepObjective). The sweep is a
// branch-and-bound: floorBound gives every candidate an admissible lower
// bound, the sweep claims the cells with the smallest bounds first, and
// candidates whose bound already exceeds the best expected time are
// pruned before the chain is ever solved.
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	grid := optimize.Tau0Grid(sys, t.Tau0Points)
	bound, err := floorBound(sys, grid)
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	space := optimize.Space{
		Tau0:               grid,
		CountVals:          t.CountVals,
		LevelSets:          [][]int{pattern.AllLevels(sys)},
		MaxPeriodIntervals: t.MaxPeriodIntervals,
		Workers:            t.Workers,
		RefineTau0:         true,
		LowerBound:         bound,
		Metrics:            t.Metrics,
		Spans:              t.Spans,
		Context:            t.Context,
	}
	res, err := optimize.SweepObjectives(space, func(_ int, reg *obs.Registry) optimize.Objective {
		return newSweepObjective(sys, reg)
	})
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	return res.Plan, model.NewPrediction(sys.BaselineTime, sys.BaselineTime*res.ExpectedTime), nil
}

// floorBound returns an admissible lower bound on the Markov objective
// (1/efficiency) of the plans on a τ0 grid. A period of n τ0 intervals
// and c_ℓ level-ℓ checkpoints takes at least the sum of its segments'
// no-rollback floors (markov.Chain.SegmentFloors), so
//
//	1/eff >= [n·F(τ0) + Σ_ℓ c_ℓ·F(δ_ℓ)] / (n·τ0).
//
// F(d) >= d, so this dominates the failure-free period time over its
// work. F is computed once per grid τ0 and checkpoint cost, so a
// candidate pays O(ℓ) multiply-adds and no exp. The 1e-12 relative
// margin covers the rounding gap between n·F and the solver's sequential
// sums (pruning is strict, so an admissible bound never changes the
// sweep result). The grid must be ascending, as Tau0Grid's is; a τ0 off
// the grid gets the trivial bound 0.
func floorBound(sys *system.System, grid []float64) (func(pattern.Plan) float64, error) {
	L := sys.NumLevels()
	durs := make([]float64, 0, L+len(grid))
	for _, l := range sys.Levels {
		durs = append(durs, l.Checkpoint)
	}
	durs = append(durs, grid...)
	floors, err := escalationChain(sys).SegmentFloors(durs)
	if err != nil {
		return nil, err
	}
	ckpt := floors[:L]
	tauFloors := floors[L:]
	return func(p pattern.Plan) float64 {
		at, ok := slices.BinarySearch(grid, p.Tau0)
		if !ok {
			return 0
		}
		top := len(p.Levels) - 1
		overhead := ckpt[p.Levels[top]-1] // one top-level checkpoint per period
		suffix := 1                       // Π_{j>i}(N_j+1): periods of level i per top-level period
		for i := top - 1; i >= 0; i-- {
			// Skip absent levels: their floor may be +Inf, and 0·Inf is NaN.
			if c := p.Counts[i] * suffix; c > 0 {
				overhead += float64(c) * ckpt[p.Levels[i]-1]
			}
			suffix *= p.Counts[i] + 1
		}
		n := float64(suffix) // intervals per period
		return (n*tauFloors[at] + overhead) / (n * p.Tau0) * (1 - 1e-12)
	}, nil
}

// newSweepObjective builds a goroutine-local Markov objective for the
// sweep: a reusable markov.Solver plus a memo of period shapes (the
// per-interval checkpoint-level sequence, a pure function of the count
// vector), so repeated count vectors across τ0 grid points pay the
// pattern odometer once and the hot path allocates only on memo misses.
// reg receives the memo's hit/miss counters.
func newSweepObjective(sys *system.System, reg *obs.Registry) optimize.Objective {
	L := sys.NumLevels()
	chain := escalationChain(sys)
	solver := &markov.Solver{}
	shapes := map[string][]uint8{}
	var key []byte
	hits := reg.Counter("opt_moody_shape_memo_hits_total")
	misses := reg.Counter("opt_moody_shape_memo_misses_total")
	return func(p pattern.Plan) (float64, bool) {
		if p.NumUsed() != L {
			return 0, false
		}
		key = key[:0]
		for _, c := range p.Counts {
			key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		shape, ok := shapes[string(key)]
		if ok {
			hits.Inc()
		} else {
			misses.Inc()
			n := p.PeriodIntervals()
			shape = make([]uint8, n)
			for k := 0; k < n; k++ {
				shape[k] = uint8(p.Levels[p.LevelAfterInterval(k)])
			}
			shapes[string(key)] = shape
		}
		segs := chain.Segments[:0]
		if cap(segs) < 2*len(shape) {
			segs = make([]markov.Segment, 0, 2*len(shape))
		}
		for _, lvl := range shape {
			segs = append(segs,
				markov.Segment{Kind: markov.Compute, Duration: p.Tau0},
				markov.Segment{Kind: markov.Checkpoint, Duration: sys.Levels[lvl-1].Checkpoint, Level: int(lvl)})
		}
		chain.Segments = segs
		t, err := chain.ExpectedPeriodTimeWith(solver)
		if err != nil || math.IsInf(t, 1) {
			return 0, false
		}
		// Accumulate the work term exactly as Chain.Work does, so the
		// objective is bitwise identical to 1/PeriodEfficiency.
		var work float64
		for range shape {
			work += p.Tau0
		}
		eff := work / t
		if !(eff > 0) {
			return 0, false
		}
		// Minimizing 1/efficiency maximizes efficiency.
		return 1 / eff, true
	}
}

var _ model.Technique = (*Technique)(nil)
