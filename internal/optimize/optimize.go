// Package optimize implements the checkpoint-interval search of the
// paper's Section III-C: a bounded brute-force sweep over the decision
// variables (τ0, N_1..N_{ℓ-1}, and — for the Section IV-F study — the
// subset of levels a plan uses), evaluated in parallel across worker
// goroutines, with an optional golden-section refinement of τ0 around the
// best grid point.
//
// The sweep is deterministic by construction: workers pull (τ0 ×
// level-set) cells from a chunked atomic work queue (so load balances
// dynamically — small-τ0 cells can cost far more under the Markov
// objective), best-bound-first when the objectives come with a lower
// bound (a branch-and-bound that skips whole count subtrees), each keeps
// a running best under a total candidate order (expected time, then τ0,
// then levels, then counts, lexicographically), and the per-worker bests
// are reduced under the same order. The result is therefore
// byte-identical for any worker count. The hot path is allocation-free:
// count vectors are enumerated depth first into per-worker scratch
// buffers that are only copied when a candidate becomes a worker's new
// best.
package optimize

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/system"
)

// Objective evaluates a candidate plan and returns its expected execution
// time in minutes. ok=false rejects the candidate (invalid or out of the
// model's domain). The plan's Counts slice is a scratch buffer reused
// between calls — an objective that retains it past the call must copy
// it. Objectives passed to Sweep must be safe for concurrent use;
// objectives built by an ObjectiveFactory are goroutine-local and need
// not be.
type Objective func(plan pattern.Plan) (expectedTime float64, ok bool)

// Bound is an admissible lower bound on an Objective, incremental over a
// candidate's counts. prefix holds τ0, the levels and the first
// len(prefix.Counts) counts of a candidate; the other
// len(prefix.Levels)−1−len(prefix.Counts) counts are free, and a prefix
// with all of them fixed is one candidate. Bound(prefix) must not exceed
// the objective's value of any completion of prefix that the objective
// accepts. The sweep asks it about every prefix it enumerates, depth
// first in odometer order, so an implementation may keep per-depth state
// and pay one level per call; its value must still depend on prefix
// alone. A Bound built by an ObjectiveFactory belongs to one goroutine,
// like its objective, and may share the objective's scratch.
type Bound func(prefix pattern.Plan) float64

// ObjectiveFactory builds one Objective per worker goroutine, plus one
// for the τ0 refinement stage. Factories let objectives keep
// goroutine-local scratch — memo tables, reusable solvers — without
// locks, mirroring the observer-shard idiom of sim.Campaign. metrics is
// the worker's private telemetry shard (never nil; discarded unless
// Space.Metrics is set), so objectives can count cache hits and misses.
// A non-nil Bound makes the sweep a branch-and-bound: subtrees whose
// bound strictly exceeds the best time found so far (shared across
// workers) are skipped without evaluating the objective, and the work
// queue hands out cells best-bound-first (see cellOrder). Because the
// skip is strict, neither can change the sweep's result — only the
// number of objective calls (reported via Metrics, not Result). Every
// call of one factory returns a Bound, or none does.
type ObjectiveFactory func(worker int, metrics *obs.Registry) (Objective, Bound)

// Space bounds the brute-force sweep.
type Space struct {
	// Tau0 holds the candidate computation intervals in minutes.
	Tau0 []float64
	// CountVals holds the candidate values for each N_i, in the order the
	// sweep enumerates them. A negative value is an error.
	CountVals []int
	// LevelSets holds the candidate used-level subsets (ascending,
	// 1-based system levels).
	LevelSets [][]int
	// MaxPeriodIntervals skips patterns whose top-level period spans
	// more than this many τ0 intervals (0 = unbounded). Models with
	// per-segment cost (the Markov chain) use it to bound work.
	MaxPeriodIntervals int
	// Workers is the sweep parallelism; 0 means GOMAXPROCS.
	Workers int
	// RefineTau0 enables golden-section refinement of τ0 around the
	// best grid point, holding the level set and counts fixed. The
	// refinement bracket is clamped to the grid span, so refined τ0
	// never escapes [Tau0[first], Tau0[last]].
	RefineTau0 bool
	// Metrics, when non-nil, receives the sweep's telemetry counters
	// (opt_candidates_total, opt_evaluations_total, opt_pruned_total,
	// opt_refine_evaluations_total, plus whatever the objectives
	// record): workers count into private shards that are merged here
	// once after the sweep. Sharing one sink across concurrent sweeps
	// is not supported.
	Metrics *obs.Registry
	// Spans, when non-nil, receives the sweep's span tree: each worker
	// records a "sweep" span with one "chunk" child per work-queue grab
	// and, in a bounded sweep, an "order" span for its share of the
	// best-bound-first pre-pass; the τ0 refinement stage records
	// "refine". Worker shards are
	// goroutine-local tracers merged here once after the sweep; the same
	// single-sweep-per-sink rule as Metrics applies.
	Spans *obs.Tracer
	// Context, when non-nil, cancels the sweep: the ordering pre-pass
	// checks it between cells, and workers at every work-queue grab and
	// at every cell boundary within a chunk, so a canceled sweep stops
	// after at most one in-flight cell per worker. A canceled sweep
	// returns ctx.Err() and a zero Result — callers must not treat
	// partial state as an answer (and in particular must not cache it).
	// Metrics and Spans recorded before the cancellation point are still
	// merged, so telemetry accounts for the aborted work.
	Context context.Context
}

// Settings are what a caller may tune on a technique's sweep. Each
// technique whose optimizer sweeps embeds them, so its method set holds
// the Tunable probe and the SetSweep* setters; a closed-form technique
// has none of them. The settings belong to one technique value and are
// not for use across concurrent Optimize calls.
type Settings struct {
	// Tau0Points is the resolution of the sweep's Tau0Grid.
	Tau0Points int
	// CountVals is the N_i candidate set (Space.CountVals).
	CountVals []int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Metrics, Spans and Context are the sweep's telemetry sinks and
	// cancellation context, as in Space.
	Metrics *obs.Registry
	Spans   *obs.Tracer
	Context context.Context
}

// Tunable is a technique whose optimizer is a sweep over its embedded
// Settings and the level sets LevelSets names. Callers probe a technique
// for it before tuning the sweep or sizing its search space.
type Tunable interface {
	SweepSettings() *Settings
	// LevelSets returns the used-level subsets the technique's sweep
	// enumerates on sys; its Optimize takes them from here.
	LevelSets(sys *system.System) [][]int
}

// SweepSettings returns s: the settings of the technique embedding it.
func (s *Settings) SweepSettings() *Settings { return s }

// SetSweepGrid overrides the grid: tau0Points τ0 points (0 keeps the
// current resolution) and countVals as the count candidate set (empty
// keeps the current set).
func (s *Settings) SetSweepGrid(tau0Points int, countVals []int) {
	if tau0Points > 0 {
		s.Tau0Points = tau0Points
	}
	if len(countVals) > 0 {
		s.CountVals = countVals
	}
}

// SetSweepWorkers bounds sweep parallelism (0 = GOMAXPROCS).
func (s *Settings) SetSweepWorkers(n int) { s.Workers = n }

// SetSweepMetrics directs the sweep's telemetry into reg (nil disables
// collection).
func (s *Settings) SetSweepMetrics(reg *obs.Registry) { s.Metrics = reg }

// SetSweepSpans directs the sweep's span tree into tr (nil disables
// collection).
func (s *Settings) SetSweepSpans(tr *obs.Tracer) { s.Spans = tr }

// SetSweepContext installs the sweep's cancellation context (nil
// disables cancellation).
func (s *Settings) SetSweepContext(ctx context.Context) { s.Context = ctx }

// Space returns the τ0-refined search space over the system's Tau0Grid
// of Tau0Points points and the given level sets, carrying the rest of
// the settings.
func (s *Settings) Space(sys *system.System, levelSets [][]int) Space {
	return Space{
		Tau0:       Tau0Grid(sys, s.Tau0Points),
		CountVals:  s.CountVals,
		LevelSets:  levelSets,
		Workers:    s.Workers,
		RefineTau0: true,
		Metrics:    s.Metrics,
		Spans:      s.Spans,
		Context:    s.Context,
	}
}

// Result is the outcome of a sweep.
type Result struct {
	Plan         pattern.Plan
	ExpectedTime float64
	// Evaluated counts the candidates considered (those passing the
	// static τ0 and period-length filters). It is a pure function of
	// the Space — candidates served by an objective's memo or skipped
	// by the bound, alone or in a pruned subtree or cell, still count,
	// so Result is identical for every worker count; the actual
	// objective-call split is reported via Metrics.
	Evaluated int
}

// ErrNoFeasiblePlan is returned when every candidate was rejected.
var ErrNoFeasiblePlan = errors.New("optimize: no feasible plan in search space")

// planLess orders plans lexicographically on (τ0, levels, counts) — the
// deterministic tie-break among candidates with equal expected times.
func planLess(a, b pattern.Plan) bool {
	if a.Tau0 != b.Tau0 {
		return a.Tau0 < b.Tau0
	}
	if c := slices.Compare(a.Levels, b.Levels); c != 0 {
		return c < 0
	}
	return slices.Compare(a.Counts, b.Counts) < 0
}

// atomicMin is a lock-free shared minimum over float64s, used as the
// cross-worker pruning bound.
type atomicMin struct {
	bits atomic.Uint64
}

func (m *atomicMin) init(v float64) { m.bits.Store(math.Float64bits(v)) }

func (m *atomicMin) load() float64 { return math.Float64frombits(m.bits.Load()) }

func (m *atomicMin) lower(v float64) {
	for {
		old := m.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// cellWalk enumerates the count vectors of one cell at a time, depth
// first in odometer order: the first count slowest, each count over
// CountVals in order. A prefix whose period already spans more than
// MaxPeriodIntervals τ0 intervals is dropped, since no count shortens a
// period. When there is a bound, the walk asks it about every prefix,
// the empty one included, and its visitor may skip the prefix's whole
// subtree. A cellWalk belongs to one goroutine.
type cellWalk struct {
	vals      []int
	maxPeriod int
	bound     Bound
	counts    []int          // the count vector, reused
	fits      map[[2]int]int // fit's memo
}

// cellVisitor receives the nodes of a cellWalk.
type cellVisitor interface {
	// cut reports whether to skip the subtree of a prefix whose bound is
	// b; rest more counts complete the prefix, whose period spans s τ0
	// intervals so far.
	cut(b float64, rest, s int) bool
	// leaf receives each candidate that was not cut, with its bound
	// (−Inf without one). Its Counts is the walk's scratch vector.
	leaf(plan pattern.Plan, b float64)
}

// walk visits the candidates of the cell (tau0, levels).
func (c *cellWalk) walk(tau0 float64, levels []int, v cellVisitor) {
	p := pattern.Plan{Tau0: tau0, Levels: levels}
	// A one-level cell's candidate keeps nil Counts.
	if n := len(levels) - 1; n > 0 {
		if cap(c.counts) < n {
			c.counts = make([]int, n)
		}
		p.Counts = c.counts[:0]
	}
	c.visit(p, len(levels)-1, 1, v)
}

// visit handles the prefix p of an n-count cell, whose period spans s
// τ0 intervals, and its subtree.
func (c *cellWalk) visit(p pattern.Plan, n, s int, v cellVisitor) {
	d := len(p.Counts)
	b := math.Inf(-1)
	if c.bound != nil {
		b = c.bound(p)
		if v.cut(b, n-d, s) {
			return
		}
	}
	if d == n {
		v.leaf(p, b)
		return
	}
	p.Counts = p.Counts[:d+1]
	for _, val := range c.vals {
		s1 := s * (val + 1)
		if c.maxPeriod > 0 && s1 > c.maxPeriod {
			continue
		}
		p.Counts[d] = val
		c.visit(p, n, s1, v)
	}
}

// completions returns how many ways rest more counts complete a prefix
// whose period spans s ≤ MaxPeriodIntervals τ0 intervals, within
// MaxPeriodIntervals.
func (c *cellWalk) completions(rest, s int) int {
	if c.maxPeriod <= 0 {
		k := 1
		for ; rest > 0; rest-- {
			k *= len(c.vals)
		}
		return k
	}
	return c.fit(rest, c.maxPeriod/s)
}

// fit returns the number of r-count vectors whose period spans at most
// m ≥ 1 τ0 intervals.
func (c *cellWalk) fit(r, m int) int {
	if r == 0 {
		return 1
	}
	key := [2]int{r, m}
	if k, ok := c.fits[key]; ok {
		return k
	}
	k := 0
	for _, v := range c.vals {
		if v+1 <= m {
			k += c.fit(r-1, m/(v+1))
		}
	}
	if c.fits == nil {
		c.fits = make(map[[2]int]int)
	}
	c.fits[key] = k
	return k
}

// sweepWorker is the per-goroutine sweep state: the worker's running
// best under the total candidate order, its count walk, and its metrics
// shard. Everything here is touched by exactly one goroutine.
type sweepWorker struct {
	obj  Objective
	walk cellWalk
	best *atomicMin

	// Running best.
	plan  pattern.Plan
	time  float64
	found bool

	candidates int // deterministic: candidates considered

	evals, pruned *obs.Counter
}

// cut skips a subtree whose bound strictly exceeds the best time any
// worker has found, and counts its candidates as pruned. The comparison
// is strict: a candidate tying the current best is still evaluated, so
// the (τ0, levels, counts) tie-break sees it and pruning cannot change
// the result.
func (w *sweepWorker) cut(b float64, rest, s int) bool {
	if !(b > w.best.load()) {
		return false
	}
	k := w.walk.completions(rest, s)
	w.candidates += k
	w.pruned.Add(uint64(k))
	return true
}

// leaf evaluates one candidate. Its Counts is scratch — copied only on
// improvement.
func (w *sweepWorker) leaf(plan pattern.Plan, _ float64) {
	w.candidates++
	w.evals.Inc()
	t, ok := w.obj(plan)
	if !ok || math.IsNaN(t) {
		return
	}
	if t > w.time || math.IsInf(t, 1) {
		return
	}
	if t == w.time && (!w.found || !planLess(plan, w.plan)) {
		return
	}
	w.time = t
	w.found = true
	// nil is the one empty Counts: reusing an earlier winner's buffer
	// would give a one-level plan []int{} or nil depending on which
	// worker found it.
	var keep []int
	if len(plan.Counts) > 0 {
		keep = append(w.plan.Counts[:0], plan.Counts...)
	}
	w.plan = pattern.Plan{Tau0: plan.Tau0, Counts: keep, Levels: plan.Levels}
	w.best.lower(t)
}

// Sweep minimizes the objective over the space. The objective must be
// safe for concurrent use; use SweepObjectives to give each worker its
// own, or a bound.
func Sweep(space Space, objective Objective) (Result, error) {
	return SweepObjectives(space, func(int, *obs.Registry) (Objective, Bound) { return objective, nil })
}

// SweepObjectives minimizes over the space with one objective, and
// optionally one bound, per worker goroutine, built by the factory. The
// result is independent of Space.Workers: cells are scheduled
// dynamically, but candidates are reduced under a total order (expected
// time, then τ0, then levels, then counts).
func SweepObjectives(space Space, factory ObjectiveFactory) (Result, error) {
	if len(space.Tau0) == 0 || len(space.LevelSets) == 0 {
		return Result{}, errors.New("optimize: empty search space")
	}
	// A negative count would give a period of zero or negative length,
	// and break the walk's rule that no count shortens a period.
	for _, v := range space.CountVals {
		if v < 0 {
			return Result{}, fmt.Errorf("optimize: negative count value %d", v)
		}
	}
	nl := len(space.LevelSets)
	cells := len(space.Tau0) * nl
	workers := space.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	// Chunked atomic work queue: each grab takes `chunk` consecutive
	// cells. Cells are expensive (a full count enumeration each), so
	// small chunks give the best balance; chunks only grow when the
	// cell count dwarfs the worker count.
	chunk := cells / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}

	regs := make([]*obs.Registry, workers+1) // last shard: refinement
	trs := make([]*obs.Tracer, workers+1)    // nil tracers no-op when Spans is unset
	for i := range regs {
		regs[i] = obs.NewRegistry()
		if space.Spans != nil {
			trs[i] = obs.NewTracer()
		}
	}
	// finish merges the telemetry shards into the sinks, so telemetry
	// accounts for the work done even when the sweep has no answer.
	finish := func(res Result, err error) (Result, error) {
		if merr := mergeMetrics(space.Metrics, regs); merr != nil {
			return Result{}, merr
		}
		mergeSpans(space.Spans, trs)
		return res, err
	}
	// Each worker builds its objective and bound on a goroutine of its
	// own, so that no two workers' scratch shares a cache line, and in a
	// bounded sweep then computes cell keys for the best-bound-first
	// queue (see cellOrder).
	var best atomicMin
	best.init(math.Inf(1))
	ws := make([]*sweepWorker, workers)
	keys := make([]float64, cells)
	var nextKey atomic.Int64
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reg := regs[w]
			obj, bound := factory(w, reg)
			sw := &sweepWorker{
				obj:    obj,
				walk:   cellWalk{vals: space.CountVals, maxPeriod: space.MaxPeriodIntervals, bound: bound},
				best:   &best,
				time:   math.Inf(1),
				evals:  reg.Counter("opt_evaluations_total"),
				pruned: reg.Counter("opt_pruned_total"),
			}
			ws[w] = sw
			if bound != nil {
				orderSpan := trs[w].Start("order")
				sw.walk.cellKeys(&space, keys, &nextKey)
				orderSpan.End()
			}
		}(w)
	}
	wg.Wait()
	if err := canceled(space.Context); err != nil {
		return finish(Result{}, err)
	}
	// The queue hands out cells τ0-major, or best-bound-first when there
	// is a bound: order[i] is the cell at queue position i, and keys[c]
	// the smallest bound in cell c.
	var order []int
	if ws[0].walk.bound != nil {
		order = cellOrder(keys)
	} else {
		keys = nil
	}

	var next atomic.Int64
	for w, sw := range ws {
		wg.Add(1)
		go func(w int, sw *sweepWorker) {
			defer wg.Done()
			sweepSpan := trs[w].Start("sweep")
			for canceled(space.Context) == nil {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= cells {
					break
				}
				end := start + chunk
				if end > cells {
					end = cells
				}
				chunkSpan := trs[w].Start("chunk")
				for i := start; i < end; i++ {
					if canceled(space.Context) != nil {
						break
					}
					c := i
					if order != nil {
						c = order[i]
					}
					tau0 := space.Tau0[c/nl]
					if !(tau0 > 0) {
						continue
					}
					levels := space.LevelSets[c%nl]
					// The cell's smallest bound decides the whole cell.
					if keys != nil && sw.cut(keys[c], len(levels)-1, 1) {
						continue
					}
					sw.walk.walk(tau0, levels, sw)
				}
				chunkSpan.End()
			}
			sweepSpan.End()
			regs[w].Counter("opt_candidates_total").Add(uint64(sw.candidates))
		}(w, sw)
	}
	wg.Wait()
	if err := canceled(space.Context); err != nil {
		// Abandon the partial reduction: a canceled sweep has no
		// answer.
		return finish(Result{}, err)
	}

	out := Result{ExpectedTime: math.Inf(1)}
	found := false
	for _, sw := range ws {
		out.Evaluated += sw.candidates
		if !sw.found {
			continue
		}
		if !found || sw.time < out.ExpectedTime ||
			(sw.time == out.ExpectedTime && planLess(sw.plan, out.Plan)) {
			out.ExpectedTime = sw.time
			out.Plan = sw.plan
			found = true
		}
	}
	if !found {
		return finish(Result{Evaluated: out.Evaluated}, ErrNoFeasiblePlan)
	}
	if space.RefineTau0 {
		reg := regs[workers]
		refineSpan := trs[workers].Start("refine")
		refine, _ := factory(workers, reg)
		refined, t := refineTau0(out.Plan, out.ExpectedTime, space.Tau0,
			refine, reg.Counter("opt_refine_evaluations_total"))
		refineSpan.End()
		out.Plan, out.ExpectedTime = refined, t
	}
	return finish(out, nil)
}

// cellKeys computes cell keys for a bounded sweep's queue order, taking
// cells from next until none is left or the context is canceled. A
// cell's key is the smallest bound over the candidates the sweep will
// consider in it, under the same τ0 > 0 and MaxPeriodIntervals filters,
// or +Inf when there are none. The walk skips every prefix whose bound
// is ≥ the smallest candidate bound found so far in the cell: a bound
// that grows down the tree cannot lower the key there. Either way the
// key bounds every candidate of the cell, so a worker may skip a cell
// whose key exceeds the best time. A key depends on its cell alone, so
// the keys do not depend on which worker computed which.
func (c *cellWalk) cellKeys(space *Space, keys []float64, next *atomic.Int64) {
	nl := len(space.LevelSets)
	var k cellKey
	for canceled(space.Context) == nil {
		i := int(next.Add(1)) - 1
		if i >= len(keys) {
			return
		}
		k.key = math.Inf(1)
		if tau0 := space.Tau0[i/nl]; tau0 > 0 {
			c.walk(tau0, space.LevelSets[i%nl], &k)
		}
		keys[i] = k.key
	}
}

// cellOrder returns the queue order of a bounded sweep: every cell,
// sorted by key, ties by cell index. Claiming the most promising cells
// first makes the shared best time near-optimal before the expensive
// cells run, so the strict prune skips most of them. The result cannot
// change: the winner is the minimum under the total candidate order,
// and an admissible bound with a strict prune never skips it or a
// candidate tied with it, whatever the schedule.
func cellOrder(keys []float64) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// cellKey is cellKeys' visitor: the smallest candidate bound so far.
type cellKey struct{ key float64 }

func (k *cellKey) cut(b float64, _, _ int) bool { return b >= k.key }

func (k *cellKey) leaf(_ pattern.Plan, b float64) {
	if b < k.key {
		k.key = b
	}
}

// canceled returns the context's error (nil contexts never cancel).
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// mergeMetrics folds the per-worker shards into the sink, if any.
func mergeMetrics(sink *obs.Registry, regs []*obs.Registry) error {
	if sink == nil {
		return nil
	}
	for _, reg := range regs {
		if err := sink.Merge(reg); err != nil {
			return err
		}
	}
	return nil
}

// mergeSpans folds the per-worker tracer shards into the sink, if any.
func mergeSpans(sink *obs.Tracer, trs []*obs.Tracer) {
	if sink == nil {
		return
	}
	for _, tr := range trs {
		sink.Merge(tr)
	}
}

// refineTau0 golden-section-searches τ0 between the grid neighbors of the
// best point, keeping levels and counts fixed. The bracket is clamped to
// the grid span. Falls back to the grid optimum if refinement finds
// nothing better.
func refineTau0(p pattern.Plan, bestT float64, grid []float64, objective Objective, evals *obs.Counter) (pattern.Plan, float64) {
	lo, hi := neighbors(grid, p.Tau0)
	eval := func(tau float64) float64 {
		evals.Inc()
		q := p
		q.Tau0 = tau
		t, ok := objective(q)
		if !ok || math.IsNaN(t) {
			return math.Inf(1)
		}
		return t
	}
	// The probes round phi·(b−a) explicitly (float64(...)) so that no
	// GOARCH fuses it into the addition and moves a probed τ0.
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - float64(phi*(b-a))
	x2 := a + float64(phi*(b-a))
	f1, f2 := eval(x1), eval(x2)
	for i := 0; i < 60 && b-a > 1e-9*(1+b); i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - float64(phi*(b-a))
			f1 = eval(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + float64(phi*(b-a))
			f2 = eval(x2)
		}
	}
	tau := (a + b) / 2
	if t := eval(tau); t < bestT {
		q := p
		q.Tau0 = tau
		return q, t
	}
	return p, bestT
}

// neighbors returns the grid values bracketing x, clamped to the grid
// span: when x is the smallest (largest) grid value the bracket starts
// (ends) at x itself, so refinement can never probe τ0 outside the
// domain the grid was built for (e.g. beyond the system's baseline
// time).
func neighbors(grid []float64, x float64) (lo, hi float64) {
	lo, hi = x, x
	for _, g := range grid {
		if g < x && (lo == x || g > lo) {
			lo = g
		}
		if g > x && (hi == x || g < hi) {
			hi = g
		}
	}
	return lo, hi
}

// Tau0Grid builds a log-spaced τ0 candidate grid spanning (0, T_B): from
// a small fraction of the cheapest checkpoint (or minFrac·T_B, whichever
// is larger) up to the baseline time.
func Tau0Grid(sys *system.System, points int) []float64 {
	if points < 2 {
		points = 2
	}
	minCkpt := math.Inf(1)
	for _, l := range sys.Levels {
		if l.Checkpoint < minCkpt {
			minCkpt = l.Checkpoint
		}
	}
	lo := minCkpt / 8
	if lo < sys.BaselineTime*1e-6 {
		lo = sys.BaselineTime * 1e-6
	}
	hi := sys.BaselineTime
	if lo >= hi {
		lo = hi / 1024
	}
	out := make([]float64, points)
	ratio := math.Pow(hi/lo, 1/float64(points-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[points-1] = hi
	return out
}

// DefaultCounts is the shared N_i candidate set: dense for small values
// where the optimum usually lies, geometric above.
func DefaultCounts() []int {
	return []int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64}
}

// PrefixLevelSets returns the level subsets {1..ℓ} for ℓ = 1..L — the
// level-exclusion family of the paper's Section IV-F (a short
// application may be better off skipping the costly top levels).
func PrefixLevelSets(numLevels int) [][]int {
	out := make([][]int, numLevels)
	for l := 1; l <= numLevels; l++ {
		out[l-1] = pattern.LowestLevels(l)
	}
	return out
}
