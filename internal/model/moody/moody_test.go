package moody

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/model/dauwe"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

func twoLevel(mtbf float64) *system.System {
	return &system.System{
		Name:         "two",
		MTBF:         mtbf,
		BaselineTime: 1440,
		Levels: []system.Level{
			{Checkpoint: 0.333, Restart: 0.333, SeverityProb: 0.833},
			{Checkpoint: 0.833, Restart: 0.833, SeverityProb: 0.167},
		},
	}
}

func TestRegistered(t *testing.T) {
	m, err := model.New("moody")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "moody" {
		t.Fatalf("name = %s", m.Name())
	}
}

func TestBuildChainStructure(t *testing.T) {
	sys := twoLevel(24)
	plan := pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}}
	c, err := BuildChain(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	// 3 intervals → 6 segments: (compute, ck1), (compute, ck1),
	// (compute, ck2).
	if len(c.Segments) != 6 {
		t.Fatalf("segments = %d", len(c.Segments))
	}
	if c.Segments[1].Level != 1 || c.Segments[3].Level != 1 || c.Segments[5].Level != 2 {
		t.Fatalf("checkpoint levels wrong: %+v", c.Segments)
	}
	if c.Segments[5].Duration != 0.833 {
		t.Fatalf("top checkpoint duration = %v", c.Segments[5].Duration)
	}
	if c.Work() != 9 {
		t.Fatalf("work = %v", c.Work())
	}
	if c.Policy != markov.Escalate {
		t.Fatal("Moody chain must use the escalation policy")
	}
}

func TestBuildChainRequiresAllLevels(t *testing.T) {
	sys := twoLevel(24)
	if _, err := BuildChain(sys, pattern.Plan{Tau0: 3, Levels: []int{2}}); err == nil {
		t.Fatal("partial plan accepted")
	}
}

func TestPredictPessimisticVersusDauwe(t *testing.T) {
	// On failure-heavy systems Moody's escalation makes its prediction
	// for the same plan more pessimistic than Dauwe's.
	plan := pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}
	for _, mtbf := range []float64{6, 3} {
		sys := twoLevel(mtbf)
		pm, err := New().Predict(sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := dauwe.New().Predict(sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !(pm.Efficiency < pw.Efficiency) {
			t.Fatalf("MTBF %v: Moody %v not more pessimistic than Dauwe %v",
				mtbf, pm.Efficiency, pw.Efficiency)
		}
	}
}

func TestPredictFailureFreeLimit(t *testing.T) {
	sys := twoLevel(1e12)
	plan := pattern.Plan{Tau0: 10, Counts: []int{2}, Levels: []int{1, 2}}
	pred, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Period: 30 work + 2·0.333 + 0.833 overhead.
	wantEff := 30 / (30 + 2*0.333 + 0.833)
	if math.Abs(pred.Efficiency-wantEff) > 1e-6 {
		t.Fatalf("efficiency = %v, want %v", pred.Efficiency, wantEff)
	}
}

func TestOptimizeTwoLevel(t *testing.T) {
	sys := twoLevel(24)
	plan, pred, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	if plan.NumUsed() != 2 {
		t.Fatalf("Moody must use all levels: %v", plan)
	}
	if !(pred.Efficiency > 0.5 && pred.Efficiency < 1) {
		t.Fatalf("efficiency = %v", pred.Efficiency)
	}
}

func TestOptimizeIgnoresBaselineTime(t *testing.T) {
	// Steady state: scaling T_B must not change the chosen intervals.
	long := twoLevel(24)
	short := twoLevel(24).WithBaseline(30)
	p1, _, err := New().Optimize(long)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := New().Optimize(short)
	if err != nil {
		t.Fatal(err)
	}
	// The τ0 candidate grid is derived from T_B, so allow the small
	// grid-artifact difference; the chosen pattern must be the same.
	if math.Abs(p1.Tau0-p2.Tau0) > 0.05*p1.Tau0 || p1.Counts[0] != p2.Counts[0] {
		t.Fatalf("T_B leaked into Moody's optimization: %v vs %v", p1, p2)
	}
	if p2.NumUsed() != 2 {
		t.Fatalf("short app still must use all levels: %v", p2)
	}
}

func TestOptimizeFourLevelKeepsPFSForShortApp(t *testing.T) {
	// The Figure 5 contrast: unlike Dauwe and Di, Moody checkpoints to
	// the PFS even for a 30-minute application.
	b, _ := system.ByName("B")
	sys := b.WithMTBF(15).WithTopCost(20).WithBaseline(30)
	plan, _, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesLevel(4) {
		t.Fatalf("Moody dropped the PFS level: %v", plan)
	}
}

func TestPredictImpossibleSystem(t *testing.T) {
	// MTBF far below every checkpoint cost: efficiency ~ 0 and the
	// prediction must degrade gracefully (no NaN, no panic).
	sys := &system.System{
		Name: "hopeless", MTBF: 0.001, BaselineTime: 100,
		Levels: []system.Level{
			{Checkpoint: 10, Restart: 10, SeverityProb: 0.9},
			{Checkpoint: 100, Restart: 100, SeverityProb: 0.1},
		},
	}
	pred, err := New().Predict(sys, pattern.Plan{Tau0: 1, Counts: []int{1}, Levels: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred.Efficiency) || pred.Efficiency > 1e-6 {
		t.Fatalf("efficiency = %v", pred.Efficiency)
	}
}

// TestOptimizeRejectsNegativeCounts is the regression test for a
// negative count value, which used to panic on a sweep worker goroutine
// (makeslice: len out of range), where no caller can recover it.
func TestOptimizeRejectsNegativeCounts(t *testing.T) {
	b, err := system.ByName("B")
	if err != nil {
		t.Fatal(err)
	}
	tech := New()
	tech.Tau0Points = 8
	tech.CountVals = []int{-2, 3}
	if plan, _, err := tech.Optimize(b); err == nil {
		t.Fatalf("CountVals {-2, 3}: plan %v and no error", plan)
	}
}

func TestOptimizeRejectsInvalidSystem(t *testing.T) {
	bad := twoLevel(24)
	bad.Levels[0].SeverityProb = 2
	if _, _, err := New().Optimize(bad); err == nil {
		t.Fatal("invalid system accepted")
	}
}

// TestSweepObjectiveMatchesPeriodEfficiency checks the memoized
// per-worker objective is bitwise identical to the straightforward
// 1/PeriodEfficiency path it replaced.
func TestSweepObjectiveMatchesPeriodEfficiency(t *testing.T) {
	for _, sys := range system.TableI() {
		reg := obs.NewRegistry()
		obj := newSweepObjective(sys, reg)
		levels := pattern.AllLevels(sys)
		counts := func(vals ...int) []int { return vals[:len(levels)-1] }
		plans := []pattern.Plan{
			{Tau0: 5, Counts: counts(0, 0, 0), Levels: levels},
			{Tau0: 30, Counts: counts(3, 1, 0), Levels: levels},
			{Tau0: 120, Counts: counts(7, 3, 2), Levels: levels},
			{Tau0: 30, Counts: counts(3, 1, 0), Levels: levels}, // memo hit
		}
		for _, p := range plans {
			got, ok := obj(p)
			eff, err := PeriodEfficiency(sys, p)
			if err != nil || !(eff > 0) {
				if ok {
					t.Fatalf("%s %v: objective ok=true but PeriodEfficiency err=%v eff=%v", sys.Name, p, err, eff)
				}
				continue
			}
			if !ok || got != 1/eff {
				t.Fatalf("%s %v: objective = %v ok=%v, want exactly %v", sys.Name, p, got, ok, 1/eff)
			}
		}
		if reg.Snapshot().Counter("opt_moody_shape_memo_hits_total") == 0 {
			t.Fatalf("%s: repeated count vector did not hit the shape memo", sys.Name)
		}
	}
}

// odometerCell returns one sweep cell's candidates in the sweep's order:
// every count vector over vals, last count fastest.
func odometerCell(tau0 float64, levels, vals []int) []pattern.Plan {
	n := len(levels) - 1
	var out []pattern.Plan
	var walk func(counts []int)
	walk = func(counts []int) {
		if len(counts) == n {
			out = append(out, pattern.Plan{Tau0: tau0, Counts: slices.Clone(counts), Levels: levels})
			return
		}
		for _, v := range vals {
			walk(append(counts, v))
		}
	}
	walk(nil)
	return out
}

// TestSweepObjectiveOdometerMatchesFresh walks sweep cells in odometer
// order, where the objective's solver resumes each period from the
// prefix it shares with the previous one, and checks every value bit for
// bit against an objective that has seen nothing before.
func TestSweepObjectiveOdometerMatchesFresh(t *testing.T) {
	for _, sys := range system.TableI() {
		obj := newSweepObjective(sys, obs.NewRegistry())
		levels := pattern.AllLevels(sys)
		for _, tau0 := range []float64{0.05, 2, 45} {
			for _, p := range odometerCell(tau0, levels, []int{0, 1, 3, 6}) {
				got, gotOK := obj(p)
				want, wantOK := newSweepObjective(sys, obs.NewRegistry())(p)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v: reused (%v, %v), fresh (%v, %v)", sys.Name, p, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestSweepObjectiveAllocs guards the sweep's hot path: once the shape
// memo and the solver's scratch are warm, a cell of candidates allocates
// nothing, in the objective or in the pruning bound at any depth.
func TestSweepObjectiveAllocs(t *testing.T) {
	sys, err := system.ByName("B")
	if err != nil {
		t.Fatal(err)
	}
	obj := newSweepObjective(sys, obs.NewRegistry())
	grid := optimize.Tau0Grid(sys, 20)
	nb, err := newNestedBound(sys, grid)
	if err != nil {
		t.Fatal(err)
	}
	bound := nb.worker()
	cell := odometerCell(grid[7], pattern.AllLevels(sys), []int{0, 2, 5})
	run := func() {
		for _, p := range cell {
			for d := 0; d <= len(p.Counts); d++ {
				q := p
				q.Counts = p.Counts[:d]
				bound(q)
			}
			obj(p)
		}
	}
	run()
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("sweep objective allocates %v times per cell, want 0", a)
	}
}

// sweepGrid is one optimizer search resolution.
type sweepGrid struct {
	points, maxPeriod int
	counts            []int
}

var (
	fastGrid    = sweepGrid{20, 128, []int{0, 1, 2, 4, 8, 16, 32}} // experiments' Fast mode
	defaultGrid = sweepGrid{64, 512, optimize.DefaultCounts()}
)

// scaledB returns the scaled system B grid of Figures 4 and 5: every
// PFS cost × the five exascale MTBFs, for a T_B-minute application.
func scaledB(t *testing.T, pfsCosts []float64, tb float64) []*system.System {
	t.Helper()
	base, err := system.ByName("B")
	if err != nil {
		t.Fatal(err)
	}
	var out []*system.System
	for _, pfs := range pfsCosts {
		for _, mtbf := range []float64{26, 20, 15, 9, 3} {
			out = append(out, base.WithTopCost(pfs).WithMTBF(mtbf).WithBaseline(tb))
		}
	}
	return out
}

// TestFloorBoundAdmissible checks the pruning bound against the Markov
// objective on every candidate of whole sweep grids: the Fast grid on the
// Table I systems, the Figure 4 systems (PFS 10–40, T_B 1440) and the
// Figure 5 systems, and the default grid on B, D4 and M. Admissibility —
// the bound of a candidate, and of each of its count prefixes, never
// exceeds the objective of a candidate the objective accepts — is what
// makes pruning and the best-bound-first cell order result-neutral. One
// worker bound answers every prefix, in the sweep's order. It also
// checks F(d) >= d and c_v(d) >= 0 for every duration the bound uses, so
// the bound dominates the failure-free period time over its work.
func TestFloorBoundAdmissible(t *testing.T) {
	type target struct {
		sys  *system.System
		grid sweepGrid
	}
	var targets []target
	for _, sys := range system.TableI() {
		targets = append(targets, target{sys, fastGrid})
	}
	for _, sys := range scaledB(t, []float64{10, 20, 30, 40}, 1440) { // Figure 4
		targets = append(targets, target{sys, fastGrid})
	}
	for _, sys := range scaledB(t, []float64{10, 20}, 30) { // Figure 5
		targets = append(targets, target{sys, fastGrid})
	}
	for _, name := range []string{"B", "D4", "M"} {
		sys, err := system.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{sys, defaultGrid})
	}

	var checked int
	worst := 0.0
	for _, tg := range targets {
		sys := tg.sys
		tau := optimize.Tau0Grid(sys, tg.grid.points)
		durs := append([]float64(nil), tau...)
		for _, l := range sys.Levels {
			durs = append(durs, l.Checkpoint)
		}
		floors, coefs, err := escalationChain(sys).SegmentTerms(durs)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range floors {
			if !(f >= durs[i]) {
				t.Fatalf("%s: F(%v) = %v below the duration", sys.Name, durs[i], f)
			}
			for v, c := range coefs[i] {
				if !(c >= 0) {
					t.Fatalf("%s: c_%d(%v) = %v, want >= 0", sys.Name, v+1, durs[i], c)
				}
			}
		}
		nb, err := newNestedBound(sys, tau)
		if err != nil {
			t.Fatal(err)
		}
		obj := newSweepObjective(sys, obs.NewRegistry())
		bound := nb.worker()
		for _, tau0 := range tau {
			for _, p := range odometerCell(tau0, pattern.AllLevels(sys), tg.grid.counts) {
				if p.PeriodIntervals() > tg.grid.maxPeriod {
					continue
				}
				v, ok := obj(p)
				if !ok {
					continue
				}
				for d := 0; d <= len(p.Counts); d++ {
					q := p
					q.Counts = p.Counts[:d]
					b := bound(q)
					if !(b <= v) {
						t.Fatalf("%s %v: bound %v of the %d-count prefix exceeds objective %v", sys.Name, p, b, d, v)
					}
					worst = max(worst, b/v)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate checked")
	}
	t.Logf("%d candidates on %d systems; largest bound/objective %.10f", checked, len(targets), worst)
}

// TestFig5SolveGuard counts the Markov solves the branch-and-bound
// leaves on the ten Figure 5 systems at the Fast grid: summed
// opt_evaluations_total at one worker, so the count does not depend on
// scheduling. The nested bound leaves 1,762; a change that loosens it
// fails here instead of quietly costing the fig5-optimize benchmark.
func TestFig5SolveGuard(t *testing.T) {
	var evals uint64
	for _, sys := range scaledB(t, []float64{10, 20}, 30) {
		tech := New()
		tech.SetSweepGrid(fastGrid.points, fastGrid.counts)
		tech.MaxPeriodIntervals = fastGrid.maxPeriod
		tech.Workers = 1
		reg := obs.NewRegistry()
		tech.SetSweepMetrics(reg)
		if _, _, err := tech.Optimize(sys); err != nil {
			t.Fatal(err)
		}
		evals += reg.Snapshot().Counter("opt_evaluations_total")
	}
	const limit = 2500
	if evals > limit {
		t.Fatalf("Figure 5 Moody sweeps solved %d chains, want <= %d", evals, limit)
	}
	t.Logf("Figure 5 Moody sweeps solved %d chains (limit %d)", evals, limit)
}

// TestOptimizeDeterministicAcrossWorkers checks the full moody optimizer
// (memo + pruning + refinement) returns an identical plan and prediction
// regardless of worker count.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	sys := twoLevel(4)
	var refPlan pattern.Plan
	var refPred model.Prediction
	for i, w := range []int{1, 4} {
		tech := New()
		tech.Tau0Points = 16
		tech.Workers = w
		plan, pred, err := tech.Optimize(sys)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refPlan, refPred = plan, pred
			continue
		}
		if !reflect.DeepEqual(plan, refPlan) || pred != refPred {
			t.Fatalf("workers=%d: plan %+v pred %+v differ from workers=1 %+v %+v",
				w, plan, pred, refPlan, refPred)
		}
	}
}

// TestOptimizeSweepMetrics checks the sweep telemetry lands in the
// registry installed via SetSweepMetrics, and that pruning plus
// evaluations account for every candidate.
func TestOptimizeSweepMetrics(t *testing.T) {
	sys := twoLevel(4)
	tech := New()
	tech.Tau0Points = 16
	reg := obs.NewRegistry()
	tech.SetSweepMetrics(reg)
	if _, _, err := tech.Optimize(sys); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counter("opt_candidates_total") == 0 {
		t.Fatal("no candidates recorded")
	}
	if snap.Counter("opt_evaluations_total")+snap.Counter("opt_pruned_total") != snap.Counter("opt_candidates_total") {
		t.Fatalf("evaluations %d + pruned %d != candidates %d",
			snap.Counter("opt_evaluations_total"), snap.Counter("opt_pruned_total"), snap.Counter("opt_candidates_total"))
	}
	if snap.Counter("opt_moody_shape_memo_hits_total")+snap.Counter("opt_moody_shape_memo_misses_total") == 0 {
		t.Fatal("shape memo never consulted")
	}
	if snap.Counter("opt_refine_evaluations_total") == 0 {
		t.Fatal("refinement recorded no evaluations")
	}
}
