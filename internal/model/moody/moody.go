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
// branch-and-bound: nestedBound gives every count prefix an admissible
// lower bound, the sweep claims the cells with the smallest bounds first,
// and prefixes whose bound already exceeds the best expected time are
// pruned, with all their completions, before a chain is ever solved.
func (t *Technique) Optimize(sys *system.System) (pattern.Plan, model.Prediction, error) {
	if err := sys.Validate(); err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	grid := optimize.Tau0Grid(sys, t.Tau0Points)
	lb, err := newNestedBound(sys, grid)
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
		Metrics:            t.Metrics,
		Spans:              t.Spans,
		Context:            t.Context,
	}
	res, err := optimize.SweepObjectives(space, func(_ int, reg *obs.Registry) (optimize.Objective, optimize.Bound) {
		return newSweepObjective(sys, reg), lb.worker()
	})
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	return res.Plan, model.NewPrediction(sys.BaselineTime, sys.BaselineTime*res.ExpectedTime), nil
}

// nestedBound is an admissible lower bound on the Markov objective
// (1/efficiency) of the plans on a τ0 grid, assembled from the sweep's
// own A_k terms: a segment of duration d contributes its no-rollback
// floor F(d) plus c_v(d) times each rollback distance prefix[k] −
// prefix[pos_v] (markov.Chain.SegmentTerms), and every distance is
// replaced by a lower bound on the A-sum it spans. With
// S_u = Π_{i<u}(N_i+1) τ0 intervals in a level-u sub-period,
//
//	X_1 = F(τ0)
//	X_u = (N_{u−1}+1)·X_{u−1} + N_{u−1}·K_{u−1} + c_u(τ0)·F(τ0)·S_u(S_u−1)/2
//	K_ℓ = F(δ_ℓ) + Σ_v c_v(δ_ℓ)·X_{min(v,ℓ)}
//	1/eff >= (X_L + K_L) / (S_L·τ0).
//
// X_u bounds the A-sum of a level-u sub-period without its closing
// checkpoint: N_{u−1}+1 level-(u−1) sub-periods, the N_{u−1}
// level-(u−1) checkpoints between them, and the level-u rollback of its
// τ0 intervals, the j-th of which rolls back over at least j earlier
// ones. K_ℓ bounds a level-ℓ checkpoint's A: a level-v recovery there
// rolls back over the whole level-min(v,ℓ) sub-period the checkpoint
// closes. DESIGN.md §2.7 gives the admissibility argument and the
// reason for the 1e-9 relative margin.
//
// The per-τ0 and per-level tables are built once, and each sweep worker
// keeps X_u per depth (see worker), so fixing a count pays O(L)
// multiply-adds and no exp. Every product is rounded explicitly
// (float64(...)) so that no GOARCH fuses it into an addition.
type nestedBound struct {
	grid  []float64   // ascending, as Tau0Grid's
	tauF  []float64   // F(τ0) per grid point
	ramp  []float64   // [t·L + u−1]: c_u(τ0)·F(τ0)/2 at grid point t
	ckptF []float64   // [ℓ−1]: F(δ_ℓ)
	ckptC [][]float64 // [ℓ−1][v−1]: c_v(δ_ℓ)
	// ckptTail[ℓ−1] = Σ_{v≥ℓ} c_v(δ_ℓ), the coefficients that all
	// multiply X_ℓ.
	ckptTail []float64
}

func newNestedBound(sys *system.System, grid []float64) (*nestedBound, error) {
	L := sys.NumLevels()
	durs := make([]float64, 0, L+len(grid))
	for _, l := range sys.Levels {
		durs = append(durs, l.Checkpoint)
	}
	durs = append(durs, grid...)
	floors, coefs, err := escalationChain(sys).SegmentTerms(durs)
	if err != nil {
		return nil, err
	}
	b := &nestedBound{
		grid:     grid,
		tauF:     floors[L:],
		ramp:     make([]float64, len(grid)*L),
		ckptF:    floors[:L],
		ckptC:    coefs[:L],
		ckptTail: make([]float64, L),
	}
	for l, row := range b.ckptC {
		for _, c := range row[l:] {
			b.ckptTail[l] += c
		}
	}
	for t, f := range b.tauF {
		for u, c := range coefs[L+t] {
			b.ramp[t*L+u] = c * f / 2
		}
	}
	return b, nil
}

// worker returns one sweep worker's incremental view of the bound (see
// optimize.Bound). With u−1 counts fixed, X_u and S_u are fixed, and
// X_u/(S_u·τ0)·(1 − 1e-9) bounds every completion, because
// X_{u+1}/S_{u+1} ≥ X_u/S_u and X_L + K_L ≥ X_L. Once all counts are
// fixed it is the plan's bound. The worker keeps X_u and S_u per depth
// and resumes from the deepest depth the next prefix shares, so fixing a
// count costs one level.
func (b *nestedBound) worker() optimize.Bound {
	L := len(b.ckptF)
	w := &nestedWorker{b: b, x: make([]float64, L), s: make([]int, L), counts: make([]int, L), have: -1}
	return w.bound
}

// nestedWorker is one goroutine's per-depth state of a nestedBound.
type nestedWorker struct {
	b      *nestedBound
	tau0   float64
	at     int       // τ0's grid index
	x      []float64 // x[u−1] = X_u
	s      []int     // s[u−1] = S_u
	counts []int     // counts[u−2] = N_{u−1}
	have   int       // X_u and S_u are held for u ≤ have+1; < 0: none
}

// bound returns the lower bound of a prefix of a plan that uses every
// level, as the sweep's candidates do, or 0 for a τ0 off the grid. A
// count of zero contributes nothing, so the +Inf floor of a level that
// is absent never meets a zero factor (0·Inf is NaN).
func (w *nestedWorker) bound(p pattern.Plan) float64 {
	b := w.b
	L := len(b.ckptF)
	if w.have < 0 || math.Float64bits(w.tau0) != math.Float64bits(p.Tau0) {
		at, ok := slices.BinarySearch(b.grid, p.Tau0)
		if !ok {
			w.have = -1
			return 0
		}
		w.tau0, w.at, w.have = p.Tau0, at, 0
		w.x[0], w.s[0] = b.tauF[at], 1
	}
	if math.IsInf(w.x[0], 1) {
		// Every period has a τ0 interval, so the sweep returns +Inf.
		return w.x[0]
	}
	d := len(p.Counts)
	h := 0
	for h < w.have && h < d && w.counts[h] == p.Counts[h] {
		h++
	}
	if h < w.have && h < d {
		w.have = h
	}
	for ; h < d; h++ {
		// X_u for u = h+2 from N_{u−1} = Counts[h].
		c := p.Counts[h]
		xu := float64(float64(c+1) * w.x[h])
		if c > 0 {
			xu += float64(float64(c) * b.checkpoint(h+1, w.x))
		}
		n := w.s[h] * (c + 1)
		if n > 1 {
			xu += float64(b.ramp[w.at*L+h+1] * float64(n*(n-1)))
		}
		w.x[h+1], w.s[h+1], w.counts[h] = xu, n, c
		w.have = h + 1
	}
	if d == L-1 {
		return (w.x[d] + b.checkpoint(L, w.x)) / (float64(w.s[d]) * p.Tau0) * (1 - 1e-9)
	}
	return w.x[d] / (float64(w.s[d]) * p.Tau0) * (1 - 1e-9)
}

// checkpoint returns K_l given x[u−1] = X_u for u = 1..l.
func (b *nestedBound) checkpoint(l int, x []float64) float64 {
	k := b.ckptF[l-1]
	for v, c := range b.ckptC[l-1][:l-1] {
		if c > 0 {
			k += float64(c * x[v])
		}
	}
	if c := b.ckptTail[l-1]; c > 0 {
		k += float64(c * x[l-1])
	}
	return k
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
