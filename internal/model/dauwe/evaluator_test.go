package dauwe

import (
	"math"
	"math/rand/v2"
	"testing"

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
// level-set and per-level τ_i caches carry over between calls, returns
// bit for bit what a fresh evaluator returns for every candidate —
// times, rejection levels and Breakdowns alike.
func TestEvaluatorMatchesFresh(t *testing.T) {
	systems := append(system.TableI(), twoLevel(60), twoLevel(0.5))
	for si, sys := range systems {
		r := rand.New(rand.NewPCG(uint64(si), 13))
		e := newEvaluator(sys)
		calls, rejected := 0, 0
		candidateOrders(sys, r, 200, func(p pattern.Plan) {
			calls++
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
// objective call — accepted or rejected — allocates nothing.
func TestSweepObjectiveAllocs(t *testing.T) {
	sys := fourLevel()
	obj := newSweepObjective(sys)
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
	run := func() {
		for _, p := range plans {
			obj(p)
		}
	}
	run()
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("sweep objective allocates %v times per round, want 0", a)
	}
}
