package dauwe

import (
	"math"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/sim"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/model"
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

func fourLevel() *system.System {
	s, err := system.ByName("B")
	if err != nil {
		panic(err)
	}
	return s
}

func TestRegistered(t *testing.T) {
	m, err := model.New("dauwe")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "dauwe" {
		t.Fatalf("name = %s", m.Name())
	}
}

func TestPredictValidation(t *testing.T) {
	d := New()
	sys := twoLevel(24)
	if _, err := d.Predict(sys, pattern.Plan{Tau0: -1, Levels: []int{1}}); err == nil {
		t.Fatal("negative τ0 accepted")
	}
	if _, err := d.Predict(sys, pattern.Plan{Tau0: 1, Levels: []int{1, 2, 3}}); err == nil {
		t.Fatal("level beyond L accepted")
	}
}

func TestRareFailureLimit(t *testing.T) {
	// With an astronomically large MTBF, T_ML ≈ T_B + (#checkpoints)·δ.
	sys := twoLevel(1e12)
	plan := pattern.Plan{Tau0: 10, Counts: []int{2}, Levels: []int{1, 2}}
	pred, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Periods: work/period = 30; 48 periods; per period 2 δ1 + 1 δ2.
	want := 1440.0 + 48*(2*0.333+0.833)
	if math.Abs(pred.ExpectedTime-want) > 0.01 {
		t.Fatalf("T_ML = %v, want ~%v", pred.ExpectedTime, want)
	}
	if !(pred.Efficiency > 0.9 && pred.Efficiency < 1) {
		t.Fatalf("efficiency = %v", pred.Efficiency)
	}
}

func TestHandComputedSingleLevel(t *testing.T) {
	// Independent arithmetic for a one-level plan, following
	// Eqns. 3–14 directly.
	sys := &system.System{
		Name: "one", MTBF: 100, BaselineTime: 600,
		Levels: []system.Level{{Checkpoint: 2, Restart: 3, SeverityProb: 1}},
	}
	tau0 := 30.0
	lam := 0.01
	nTop := 600.0 / 30.0 // 20
	gamma := math.Expm1(lam * tau0)
	eTau := dist.TruncExp(tau0, lam)
	tWTau := gamma * eTau * nTop
	tCk := nTop * 2
	alpha := math.Expm1(lam*2) * nTop
	tCkF := alpha * dist.TruncExp(2, lam)
	tWCk := alpha * (tau0 + gamma*eTau) // S_1 = 1
	beta := alpha + gamma*(alpha+nTop)
	zeta := math.Expm1(lam*3) * beta
	tR := beta * 3
	tRF := zeta * dist.TruncExp(3, lam)
	want := tau0*nTop + tCk + tCkF + tR + tRF + tWTau + tWCk

	pred, err := New().Predict(sys, pattern.Plan{Tau0: tau0, Levels: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.ExpectedTime-want) > 1e-9*want {
		t.Fatalf("T_ML = %v, want %v", pred.ExpectedTime, want)
	}
}

func TestEfficiencyDecreasesWithFailureRate(t *testing.T) {
	d := New()
	plan := pattern.Plan{Tau0: 5, Counts: []int{3}, Levels: []int{1, 2}}
	prev := math.Inf(1)
	for _, mtbf := range []float64{1000, 100, 24, 6, 3} {
		pred, err := d.Predict(twoLevel(mtbf), plan)
		if err != nil {
			t.Fatal(err)
		}
		if !(pred.Efficiency < prev) {
			t.Fatalf("efficiency not decreasing at MTBF %v: %v >= %v", mtbf, pred.Efficiency, prev)
		}
		if !(pred.Efficiency > 0) {
			t.Fatalf("efficiency %v not positive", pred.Efficiency)
		}
		prev = pred.Efficiency
	}
}

func TestEfficiencyBelowOverheadBound(t *testing.T) {
	// Efficiency can never exceed the failure-free bound
	// W/(W + checkpoint overhead).
	f := func(tauRaw, n1Raw uint8) bool {
		tau0 := 0.5 + float64(tauRaw)/8
		n1 := int(n1Raw % 8)
		sys := twoLevel(24)
		plan := pattern.Plan{Tau0: tau0, Counts: []int{n1}, Levels: []int{1, 2}}
		pred, err := New().Predict(sys, plan)
		if err != nil {
			return false
		}
		work := plan.PeriodWork()
		overhead := float64(n1)*sys.Levels[0].Checkpoint + sys.Levels[1].Checkpoint
		bound := work / (work + overhead)
		return pred.Efficiency <= bound+1e-9 && pred.Efficiency > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevelExclusionAccountsResidual(t *testing.T) {
	// A plan that skips level 2 must predict WORSE time than the same
	// plan on a system where severity-2 failures do not exist, and the
	// penalty must grow with T_B.
	sysFull := twoLevel(24)
	planLow := pattern.Plan{Tau0: 2, Levels: []int{1}}
	d := New()
	predWith, err := d.Predict(sysFull, planLow)
	if err != nil {
		t.Fatal(err)
	}
	// Same plan, system with (almost) no severity-2 mass.
	sysNo2 := twoLevel(24)
	sysNo2.Levels[0].SeverityProb = 0.9999999
	sysNo2.Levels[1].SeverityProb = 0.0000001
	predWithout, err := d.Predict(sysNo2, planLow)
	if err != nil {
		t.Fatal(err)
	}
	if !(predWith.ExpectedTime > predWithout.ExpectedTime*1.05) {
		t.Fatalf("residual severity ignored: %v vs %v", predWith.ExpectedTime, predWithout.ExpectedTime)
	}
}

func TestScratchRestartMatchesClosedForm(t *testing.T) {
	// With only unrecoverable failures (single used level carries ~no
	// mass) the model must reproduce E[T] = (e^{λT'} − 1)/λ for the
	// restart-from-scratch process.
	sys := &system.System{
		Name: "scratch", MTBF: 100, BaselineTime: 120,
		Levels: []system.Level{
			{Checkpoint: 1e-9, Restart: 1e-9, SeverityProb: 0},
			{Checkpoint: 10, Restart: 10, SeverityProb: 1},
		},
	}
	// Plan uses only level 1, which carries zero severity mass and a
	// ~free checkpoint: the run is one big interval of T_B exposed to
	// rate λ2 = 1/100.
	plan := pattern.Plan{Tau0: 120, Levels: []int{1}}
	pred, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	lam := 0.01
	want := math.Expm1(lam*120) / lam
	if math.Abs(pred.ExpectedTime-want) > 0.02*want {
		t.Fatalf("scratch-restart T = %v, want ~%v", pred.ExpectedTime, want)
	}
}

func TestOptimizeTwoLevelReasonable(t *testing.T) {
	sys := twoLevel(24) // Table I's D2
	plan, pred, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatalf("optimizer returned invalid plan: %v", err)
	}
	if !(pred.Efficiency > 0.5 && pred.Efficiency < 1) {
		t.Fatalf("optimized efficiency = %v", pred.Efficiency)
	}
	// The optimum must beat obviously bad plans.
	tooShort, _ := New().Predict(sys, pattern.Plan{Tau0: 0.05, Counts: []int{1}, Levels: []int{1, 2}})
	tooLong, _ := New().Predict(sys, pattern.Plan{Tau0: 700, Counts: []int{1}, Levels: []int{1, 2}})
	if !(pred.ExpectedTime < tooShort.ExpectedTime && pred.ExpectedTime < tooLong.ExpectedTime) {
		t.Fatalf("optimum %v not better than extremes %v / %v",
			pred.ExpectedTime, tooShort.ExpectedTime, tooLong.ExpectedTime)
	}
}

func TestOptimizeFourLevel(t *testing.T) {
	sys := fourLevel()
	plan, pred, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	if !(pred.Efficiency > 0.6 && pred.Efficiency < 1) {
		t.Fatalf("system B efficiency = %v (plan %v)", pred.Efficiency, plan)
	}
	// On B the full run is much longer than the severity-4 MTBF, so the
	// optimizer must keep the PFS level.
	if plan.TopLevel() != 4 {
		t.Fatalf("plan dropped PFS on long app: %v", plan)
	}
}

func TestShortAppSkipsTopLevel(t *testing.T) {
	// Figure 5: a 30-minute application on system B with a 20-minute
	// PFS cost and MTBF 15 should not take level-4 checkpoints (the
	// mean time between severity-4 failures far exceeds T_B).
	sys := fourLevel().WithMTBF(15).WithTopCost(20).WithBaseline(30)
	plan, _, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsesLevel(4) {
		t.Fatalf("short app should skip PFS checkpoints: %v", plan)
	}
}

func TestOptimizeWithoutExclusionKeepsAllLevels(t *testing.T) {
	sys := fourLevel().WithMTBF(15).WithTopCost(20).WithBaseline(30)
	d := New()
	d.AllowLevelExclusion = false
	plan, _, err := d.Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumUsed() != 4 {
		t.Fatalf("exclusion disabled but plan = %v", plan)
	}
}

func TestOptimizeRejectsInvalidSystem(t *testing.T) {
	bad := twoLevel(24)
	bad.MTBF = -1
	if _, _, err := New().Optimize(bad); err == nil {
		t.Fatal("invalid system accepted")
	}
}

// TestOptimizeRejectsNegativeCounts is the regression test for a
// negative count value, which used to give a plan that plan.Validate
// rejects, with a nil error.
func TestOptimizeRejectsNegativeCounts(t *testing.T) {
	tech := New()
	tech.Tau0Points = 8
	tech.CountVals = []int{-2, 3}
	if plan, _, err := tech.Optimize(fourLevel()); err == nil {
		t.Fatalf("CountVals {-2, 3}: plan %v and no error", plan)
	}
}

func TestPredictionsFiniteAcrossTableI(t *testing.T) {
	d := New()
	for _, sys := range system.TableI() {
		plan := pattern.Plan{
			Tau0:   1,
			Counts: make([]int, sys.NumLevels()-1),
			Levels: pattern.AllLevels(sys),
		}
		for i := range plan.Counts {
			plan.Counts[i] = 2
		}
		pred, err := d.Predict(sys, plan)
		if err != nil {
			t.Errorf("%s: %v", sys.Name, err)
			continue
		}
		if math.IsNaN(pred.ExpectedTime) || pred.ExpectedTime < sys.BaselineTime {
			t.Errorf("%s: implausible T_ML %v", sys.Name, pred.ExpectedTime)
		}
	}
}

func TestExpectedTimeMonotoneInFailureRate(t *testing.T) {
	// Property: for a fixed plan, raising the system failure rate can
	// only increase the predicted execution time.
	f := func(mtbfRaw uint8) bool {
		mtbfHigh := 10 + float64(mtbfRaw) // 10..265
		mtbfLow := mtbfHigh / 2           // strictly more failures
		plan := pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}}
		pHigh, err1 := New().Predict(twoLevel(mtbfHigh), plan)
		pLow, err2 := New().Predict(twoLevel(mtbfLow), plan)
		if err1 != nil || err2 != nil {
			return false
		}
		return pLow.ExpectedTime > pHigh.ExpectedTime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpectedTimeMonotoneInCheckpointCost(t *testing.T) {
	// Property: cheaper checkpoints never hurt (same plan).
	f := func(scaleRaw uint8) bool {
		scale := 1 + float64(scaleRaw%50)/10 // 1..5.9
		cheap := twoLevel(24)
		costly := twoLevel(24)
		for i := range costly.Levels {
			costly.Levels[i].Checkpoint *= scale
			costly.Levels[i].Restart *= scale
		}
		plan := pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}}
		pc, err1 := New().Predict(cheap, plan)
		px, err2 := New().Predict(costly, plan)
		if err1 != nil || err2 != nil {
			return false
		}
		return px.ExpectedTime >= pc.ExpectedTime-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOptimizerNeverWorseThanSampledPlans(t *testing.T) {
	// Property: the optimum must beat random feasible plans under the
	// model's own objective.
	sys := twoLevel(12)
	_, best, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	f := func(tauRaw, nRaw uint8) bool {
		tau0 := 0.2 + float64(tauRaw)/4 // 0.2..64
		n1 := int(nRaw % 16)
		pred, err := New().Predict(sys, pattern.Plan{
			Tau0: tau0, Counts: []int{n1}, Levels: []int{1, 2},
		})
		if err != nil {
			return true // out of domain, not a counterexample
		}
		return pred.ExpectedTime >= best.ExpectedTime-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPredictDetailedSumsToTotal(t *testing.T) {
	sys := fourLevel()
	plan := pattern.Plan{Tau0: 3, Counts: []int{1, 1, 3}, Levels: []int{1, 2, 3, 4}}
	pred, bk, err := New().PredictDetailed(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bk.Total()-pred.ExpectedTime) > 1e-6*pred.ExpectedTime {
		t.Fatalf("breakdown total %v != prediction %v", bk.Total(), pred.ExpectedTime)
	}
	if math.Abs(bk.Compute-sys.BaselineTime) > 1e-6 {
		t.Fatalf("compute class %v != T_B %v", bk.Compute, sys.BaselineTime)
	}
	for name, v := range map[string]float64{
		"recompute": bk.Recompute, "ckptOK": bk.CheckpointOK,
		"ckptFail": bk.CheckpointFail, "restartOK": bk.RestartOK,
		"restartFail": bk.RestartFail,
	} {
		if v < 0 {
			t.Errorf("negative %s: %v", name, v)
		}
	}
	if bk.CheckpointOK == 0 || bk.Recompute == 0 {
		t.Fatalf("implausible zero classes: %+v", bk)
	}
}

func TestPredictDetailedMatchesSimulatedShares(t *testing.T) {
	// The model's per-class decomposition should land near the
	// simulator's measured Figure 3 shares on a moderate system.
	sys := twoLevel(24)
	plan := pattern.Plan{Tau0: 3.8, Counts: []int{2}, Levels: []int{1, 2}}
	pred, bk, err := New().PredictDetailed(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	camp := sim.Campaign{
		Scenario: sim.Scenario{System: sys, Plan: plan},
		Trials:   200,
		Seed:     rng.Campaign(3, "detailed").Scenario("D2"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	msum := bk.Total()
	model := map[string]float64{
		"useful":  bk.Compute / msum,
		"lost":    bk.Recompute / msum,
		"ckptOK":  bk.CheckpointOK / msum,
		"restart": (bk.RestartOK + bk.RestartFail) / msum,
	}
	s := res.BreakdownShare
	simulated := map[string]float64{
		"useful":  s.UsefulCompute,
		"lost":    s.LostCompute,
		"ckptOK":  s.CheckpointOK,
		"restart": s.RestartOK + s.RestartFail,
	}
	for k := range model {
		if d := math.Abs(model[k] - simulated[k]); d > 0.04 {
			t.Errorf("%s share: model %.3f vs sim %.3f", k, model[k], simulated[k])
		}
	}
	_ = pred
}

func TestPredictDetailedLevelExclusionResidual(t *testing.T) {
	// Skipping the top level must surface the catastrophic-restart loss
	// in the Recompute class.
	sys := twoLevel(24)
	plan := pattern.Plan{Tau0: 3, Levels: []int{1}}
	_, bk, err := New().PredictDetailed(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !(bk.Recompute > 100) {
		t.Fatalf("residual scratch loss missing: %+v", bk)
	}
}

func TestAgreementWithExactMarkovChain(t *testing.T) {
	// The paper's model is a continuous approximation; the exact
	// first-passage Markov chain under the same Retry semantics is an
	// independent analytic reference. For a long application on a
	// moderate system the two must agree closely.
	sys := twoLevel(24)
	plan := pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}}

	chain := &markov.Chain{Policy: markov.Retry}
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		chain.Rates = append(chain.Rates, sys.LevelRate(sev))
		chain.RestartTime = append(chain.RestartTime, sys.Levels[sev-1].Restart)
	}
	for k := 0; k < plan.PeriodIntervals(); k++ {
		chain.Segments = append(chain.Segments, markov.Segment{Kind: markov.Compute, Duration: plan.Tau0})
		lvl := plan.Levels[plan.LevelAfterInterval(k)]
		chain.Segments = append(chain.Segments, markov.Segment{
			Kind: markov.Checkpoint, Duration: sys.Levels[lvl-1].Checkpoint, Level: lvl,
		})
	}
	periodTime, err := chain.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	exact := periodTime * sys.BaselineTime / chain.Work()

	pred, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(pred.ExpectedTime-exact) / exact
	if rel > 0.05 {
		t.Fatalf("dauwe %v vs exact markov %v (rel %.3f)", pred.ExpectedTime, exact, rel)
	}
}
