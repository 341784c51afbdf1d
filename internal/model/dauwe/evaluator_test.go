package dauwe

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

// candidateOrders drives fn with the candidate orders the evaluator's
// caches must survive: the sweep's count odometer, τ0 jumps across many
// decades, level-set switches (any ascending subset, not just prefixes),
// golden-section-style τ0 sequences with fixed counts, and plans that
// diverge or have a degenerate top period count.
func candidateOrders(sys *system.System, r *rand.Rand, steps int, fn func(pattern.Plan)) {
	L := sys.NumLevels()
	vals := []int{0, 1, 2, 5, 16}
	grid := optimize.Tau0Grid(sys, 12)
	randomLevels := func() []int {
		var lv []int
		for u := 1; u <= L; u++ {
			if r.IntN(2) == 0 {
				lv = append(lv, u)
			}
		}
		if len(lv) == 0 {
			lv = []int{1 + r.IntN(L)}
		}
		return lv
	}
	randomCounts := func(n int) []int {
		c := make([]int, n)
		for i := range c {
			c[i] = vals[r.IntN(len(vals))]
		}
		return c
	}
	for step := 0; step < steps; step++ {
		levels := randomLevels()
		if r.IntN(3) == 0 {
			levels = pattern.LowestLevels(1 + r.IntN(L))
		}
		n := len(levels) - 1
		switch r.IntN(5) {
		case 0: // one odometer cell, last count fastest
			tau0 := grid[r.IntN(len(grid))]
			var idx func(i int, counts []int)
			idx = func(i int, counts []int) {
				if i == n {
					fn(pattern.Plan{Tau0: tau0, Counts: append([]int(nil), counts...), Levels: levels})
					return
				}
				for _, v := range vals[:3] {
					idx(i+1, append(counts, v))
				}
			}
			idx(0, nil)
		case 1: // τ0 jumps over many decades
			tau0 := math.Pow(10, -4+10*r.Float64())
			fn(pattern.Plan{Tau0: tau0, Counts: randomCounts(n), Levels: levels})
		case 2: // golden-section refinement around a grid point
			counts := randomCounts(n)
			a, b := grid[0], grid[len(grid)-1]
			const phi = 0.6180339887498949
			for i := 0; i < 8; i++ {
				x := b - phi*(b-a)
				fn(pattern.Plan{Tau0: x, Counts: counts, Levels: levels})
				if r.IntN(2) == 0 {
					b = a + phi*(b-a)
				} else {
					a = x
				}
			}
		case 3: // divergent: huge τ0 (Inf·0 = NaN in Eqn. 10)
			fn(pattern.Plan{Tau0: 1e9 * (1 + r.Float64()), Counts: make([]int, n), Levels: levels})
		case 4: // degenerate top period count
			fn(pattern.Plan{Tau0: math.Inf(1), Counts: randomCounts(n), Levels: levels})
		}
	}
}

// TestEvaluatorMatchesFresh checks that one long-lived evaluator, whose
// level-set cache and depth states carry over between calls, returns
// bit for bit what a fresh evaluator returns for every candidate —
// times, rejection levels and Breakdowns alike — and for every bound.
// Bound calls at random depths, on prefixes of the candidate or of the
// one before it, are interleaved between objective calls, as the sweep
// interleaves them.
func TestEvaluatorMatchesFresh(t *testing.T) {
	systems := append(system.TableI(), twoLevel(60), twoLevel(0.5))
	for si, sys := range systems {
		r := rand.New(rand.NewPCG(uint64(si), 13))
		e := newEvaluator(sys)
		calls, rejected, bounds := 0, 0, 0
		var prev pattern.Plan
		candidateOrders(sys, r, 200, func(p pattern.Plan) {
			calls++
			for r.IntN(2) == 0 {
				q := p
				if prev.Levels != nil && r.IntN(4) == 0 {
					q = prev
				}
				q.Counts = q.Counts[:r.IntN(len(q.Counts)+1)]
				got, want := e.bound(q), newEvaluator(sys).bound(q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s prefix %v: reused bound %v, fresh %v", sys.Name, q, got, want)
				}
				bounds++
			}
			prev = p
			var bk, fbk *Breakdown
			if r.IntN(4) == 0 {
				bk, fbk = &Breakdown{}, &Breakdown{}
			}
			got, gotLevel, gotOK := e.expectedTime(p, bk)
			want, wantLevel, wantOK := newEvaluator(sys).expectedTime(p, fbk)
			if !gotOK {
				rejected++
			}
			if gotOK != wantOK || gotLevel != wantLevel ||
				math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: memoized (%v, %d, %v), fresh (%v, %d, %v)",
					sys.Name, p, got, gotLevel, gotOK, want, wantLevel, wantOK)
			}
			if bk != nil && !sameBreakdown(*bk, *fbk) {
				t.Fatalf("%s %v: memoized breakdown %+v, fresh %+v", sys.Name, p, *bk, *fbk)
			}
		})
		if rejected == 0 || rejected == calls {
			t.Fatalf("%s: %d of %d candidates rejected; the orders must mix both", sys.Name, rejected, calls)
		}
		if bounds == 0 {
			t.Fatalf("%s: no bound calls interleaved", sys.Name)
		}
	}
}

// sameBreakdown compares breakdowns bit for bit (NaN included).
func sameBreakdown(a, b Breakdown) bool {
	x := []float64{a.Compute, a.Recompute, a.CheckpointOK, a.CheckpointFail, a.RestartOK, a.RestartFail}
	y := []float64{b.Compute, b.Recompute, b.CheckpointOK, b.CheckpointFail, b.RestartOK, b.RestartFail}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestSweepObjectiveAllocs guards the sweep's hot path: once warm, an
// objective call — accepted or rejected — and a bound call on every
// prefix allocate nothing.
func TestSweepObjectiveAllocs(t *testing.T) {
	sys := fourLevel()
	obj, bound := newSweepObjective(sys)
	plans := []pattern.Plan{
		{Tau0: 3, Counts: []int{1, 2, 3}, Levels: []int{1, 2, 3, 4}},
		{Tau0: 3, Counts: []int{1, 2, 4}, Levels: []int{1, 2, 3, 4}},
		{Tau0: 5, Counts: []int{2}, Levels: []int{1, 2}},
		{Tau0: 1e9, Counts: []int{0, 0, 0}, Levels: []int{1, 2, 3, 4}}, // diverges
		{Tau0: math.Inf(1), Counts: []int{0}, Levels: []int{1, 2}},     // degenerate
	}
	if _, ok := obj(plans[3]); ok {
		t.Fatal("the divergent plan was accepted")
	}
	if b := bound(plans[3]); !math.IsInf(b, 1) {
		t.Fatalf("the divergent plan's bound is %v, want +Inf", b)
	}
	run := func() {
		for _, p := range plans {
			for d := 0; d <= len(p.Counts); d++ {
				q := p
				q.Counts = p.Counts[:d]
				bound(q)
			}
			obj(p)
		}
	}
	run()
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("sweep objective and bound allocate %v times per round, want 0", a)
	}
}

// fastCounts and the 24-point τ0 grid are the experiments' Fast grid.
var fastCounts = []int{0, 1, 2, 4, 8, 16, 32}

// scaledB returns the scaled system B grid of Figures 4 and 5: every
// PFS cost × the five exascale MTBFs, for a T_B-minute application.
func scaledB(pfsCosts []float64, tb float64) []*system.System {
	var out []*system.System
	for _, pfs := range pfsCosts {
		for _, mtbf := range []float64{26, 20, 15, 9, 3} {
			out = append(out, fourLevel().WithTopCost(pfs).WithMTBF(mtbf).WithBaseline(tb))
		}
	}
	return out
}

// TestSweepBoundAdmissible checks the sweep's bound against the
// objective on whole sweep grids: for every prefix of every candidate,
// empty and complete prefixes included, the bound must not exceed the
// objective of a completion the objective accepts. Admissibility is what
// makes subtree pruning and the best-bound-first cell order
// result-neutral. The grids: Fast on Table I, on the Figure 4 systems
// (PFS 10–40, T_B 1440) and on the Figure 5 systems, and the default
// grid on B, D4 and M, each over every level prefix. Bound and objective
// share one evaluator and run in the sweep's depth-first order.
func TestSweepBoundAdmissible(t *testing.T) {
	type target struct {
		sys    *system.System
		points int
		counts []int
	}
	var targets []target
	for _, sys := range system.TableI() {
		targets = append(targets, target{sys, 24, fastCounts})
	}
	for _, sys := range scaledB([]float64{10, 20, 30, 40}, 1440) { // Figure 4
		targets = append(targets, target{sys, 24, fastCounts})
	}
	for _, sys := range scaledB([]float64{10, 20}, 30) { // Figure 5
		targets = append(targets, target{sys, 24, fastCounts})
	}
	for _, name := range []string{"B", "D4", "M"} {
		sys, err := system.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{sys, 96, optimize.DefaultCounts()})
	}

	var checked int
	worst := 0.0
	for _, tg := range targets {
		sys := tg.sys
		obj, bound := newSweepObjective(sys)
		for _, tau0 := range optimize.Tau0Grid(sys, tg.points) {
			for _, levels := range optimize.PrefixLevelSets(sys.NumLevels()) {
				n := len(levels) - 1
				counts := make([]int, 0, n)
				bs := make([]float64, n+1) // bs[d]: the bound of counts[:d]
				var walk func()
				walk = func() {
					d := len(counts)
					p := pattern.Plan{Tau0: tau0, Counts: counts, Levels: levels}
					bs[d] = bound(p)
					if d < n {
						for _, c := range tg.counts {
							counts = append(counts, c)
							walk()
							counts = counts[:d]
						}
						return
					}
					v, ok := obj(p)
					if !ok {
						return
					}
					for k, b := range bs {
						if !(b <= v) {
							t.Fatalf("%s %v: bound %v of the %d-count prefix exceeds objective %v", sys.Name, p, b, k, v)
						}
						if !math.IsInf(v, 1) {
							worst = max(worst, b/v)
						}
					}
					checked++
				}
				walk()
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate checked")
	}
	t.Logf("%d candidates on %d systems; largest bound/objective %.12f", checked, len(targets), worst)
}

// TestFig5EvaluationGuard counts the candidates the branch-and-bound
// evaluates on the ten Figure 5 systems at the Fast grid: summed
// opt_evaluations_total at one worker, so the count does not depend on
// scheduling. Of the 96,000 candidates the bound leaves 3,837; a change
// that loosens it fails here instead of quietly costing the
// fig5-optimize benchmark.
func TestFig5EvaluationGuard(t *testing.T) {
	var evals, cands uint64
	for _, sys := range scaledB([]float64{10, 20}, 30) {
		tech := New()
		tech.SetSweepGrid(24, fastCounts)
		tech.Workers = 1
		reg := obs.NewRegistry()
		tech.SetSweepMetrics(reg)
		if _, _, err := tech.Optimize(sys); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		evals += snap.Counter("opt_evaluations_total")
		cands += snap.Counter("opt_candidates_total")
	}
	if cands != 96000 {
		t.Fatalf("Figure 5 Dauwe sweeps considered %d candidates, want 96000", cands)
	}
	const limit = 6000
	if evals > limit {
		t.Fatalf("Figure 5 Dauwe sweeps evaluated %d candidates, want <= %d", evals, limit)
	}
	t.Logf("Figure 5 Dauwe sweeps evaluated %d of %d candidates (limit %d)", evals, cands, limit)
}
