package di

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dauwe"
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
	m, err := model.New("di")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "di" {
		t.Fatalf("name = %s", m.Name())
	}
}

func TestRejectsThreeLevelPlans(t *testing.T) {
	b, _ := system.ByName("B")
	plan := pattern.Plan{Tau0: 1, Counts: []int{1, 1}, Levels: []int{1, 2, 3}}
	if _, err := New().Predict(b, plan); err == nil {
		t.Fatal("three-level plan accepted")
	}
}

func TestOptimisticVersusDauwe(t *testing.T) {
	// The failure-free-C/R assumption must make Di's prediction for the
	// same plan strictly more optimistic than Dauwe's, and the gap must
	// widen as MTBF approaches the checkpoint costs.
	plan := pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}
	prevGap := 0.0
	for _, mtbf := range []float64{100, 24, 6, 3} {
		sys := twoLevel(mtbf)
		pd, err := New().Predict(sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := dauwe.New().Predict(sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !(pd.Efficiency > pw.Efficiency) {
			t.Fatalf("MTBF %v: Di %v not more optimistic than Dauwe %v", mtbf, pd.Efficiency, pw.Efficiency)
		}
		gap := pd.Efficiency - pw.Efficiency
		if !(gap > prevGap) {
			t.Fatalf("MTBF %v: optimism gap %v did not widen from %v", mtbf, gap, prevGap)
		}
		prevGap = gap
	}
}

func TestFailureFreeLimitMatchesDauwe(t *testing.T) {
	// With essentially no failures the two models agree: all the terms
	// that differ vanish.
	sys := twoLevel(1e12)
	plan := pattern.Plan{Tau0: 10, Counts: []int{2}, Levels: []int{1, 2}}
	pd, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := dauwe.New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd.ExpectedTime-pw.ExpectedTime) > 1e-6*pw.ExpectedTime {
		t.Fatalf("failure-free disagreement: %v vs %v", pd.ExpectedTime, pw.ExpectedTime)
	}
}

func TestOptimizeUsesTopTwoLevels(t *testing.T) {
	b, _ := system.ByName("B")
	plan, pred, err := New().Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(b); err != nil {
		t.Fatal(err)
	}
	for _, l := range plan.Levels {
		if l != 3 && l != 4 {
			t.Fatalf("plan uses level %d; Di is limited to the top two: %v", l, plan)
		}
	}
	if !(pred.Efficiency > 0.5 && pred.Efficiency < 1) {
		t.Fatalf("efficiency = %v", pred.Efficiency)
	}
}

func TestOptimizeTwoLevelSystem(t *testing.T) {
	sys := twoLevel(24)
	plan, pred, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	if !(pred.Efficiency > 0.5 && pred.Efficiency < 1) {
		t.Fatalf("efficiency = %v (plan %v)", pred.Efficiency, plan)
	}
}

func TestShortAppSkipsPFS(t *testing.T) {
	// Section IV-F: Di considers T_B and drops the expensive top level
	// for a 30-minute application.
	b, _ := system.ByName("B")
	sys := b.WithMTBF(15).WithTopCost(20).WithBaseline(30)
	plan, _, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsesLevel(4) {
		t.Fatalf("short app should skip PFS: %v", plan)
	}
}

func TestSingleLevelSystem(t *testing.T) {
	sys := &system.System{
		Name: "one", MTBF: 60, BaselineTime: 500,
		Levels: []system.Level{{Checkpoint: 2, Restart: 2, SeverityProb: 1}},
	}
	plan, pred, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumUsed() != 1 || !(pred.Efficiency > 0) {
		t.Fatalf("plan %v pred %v", plan, pred)
	}
}

func TestOptimizeRejectsInvalidSystem(t *testing.T) {
	bad := twoLevel(24)
	bad.BaselineTime = 0
	if _, _, err := New().Optimize(bad); err == nil {
		t.Fatal("invalid system accepted")
	}
}

// TestSweepObjectiveAllocs guards the sweep's hot path: accepted and
// rejected candidates alike allocate nothing.
func TestSweepObjectiveAllocs(t *testing.T) {
	sys := twoLevel(60)
	obj := sweepObjective(sys)
	plans := []pattern.Plan{
		{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}},
		{Tau0: 7, Levels: []int{2}},
		{Tau0: 1e9, Counts: []int{0}, Levels: []int{1, 2}}, // diverges
		{Tau0: math.Inf(1), Levels: []int{1}},              // degenerate
	}
	if _, ok := obj(plans[2]); ok {
		t.Fatal("the divergent plan was accepted")
	}
	run := func() {
		for _, p := range plans {
			obj(p)
		}
	}
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("sweep objective allocates %v times per round, want 0", a)
	}
}
