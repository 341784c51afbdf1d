package benoit

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dauwe"
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
	m, err := model.New("benoit")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "benoit" {
		t.Fatalf("name = %s", m.Name())
	}
}

func TestRequiresAllLevels(t *testing.T) {
	b, _ := system.ByName("B")
	plan := pattern.Plan{Tau0: 1, Counts: []int{1}, Levels: []int{3, 4}}
	if _, err := New().Predict(b, plan); err == nil {
		t.Fatal("partial-level plan accepted by steady-state model")
	}
}

func TestFirstOrderOptimism(t *testing.T) {
	// Benoit's first-order, failure-free-C/R prediction must be more
	// optimistic than Dauwe's on a failure-heavy system.
	sys := twoLevel(6)
	plan := pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}
	pb, err := New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := dauwe.New().Predict(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !(pb.Efficiency > pw.Efficiency) {
		t.Fatalf("Benoit %v not more optimistic than Dauwe %v", pb.Efficiency, pw.Efficiency)
	}
}

func TestOptimizeAlwaysKeepsAllLevels(t *testing.T) {
	// Steady-state: even a short application gets PFS checkpoints.
	b, _ := system.ByName("B")
	sys := b.WithMTBF(15).WithTopCost(20).WithBaseline(30)
	plan, _, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumUsed() != 4 {
		t.Fatalf("plan = %v", plan)
	}
}

func TestIntervalsLongerThanDauwe(t *testing.T) {
	// Section IV-C: the computation intervals Benoit's equations choose
	// are substantially longer than Dauwe's on challenging systems.
	for _, mtbf := range []float64{12, 6} {
		sys := twoLevel(mtbf)
		pb, _, err := New().Optimize(sys)
		if err != nil {
			t.Fatal(err)
		}
		pw, _, err := dauwe.New().Optimize(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !(pb.Tau0 > pw.Tau0) {
			t.Fatalf("MTBF %v: Benoit τ0 %v not longer than Dauwe τ0 %v", mtbf, pb.Tau0, pw.Tau0)
		}
	}
}

func TestOptimizeProducesValidPlanAcrossTableI(t *testing.T) {
	for _, sys := range system.TableI() {
		plan, pred, err := New().Optimize(sys)
		if err != nil {
			t.Errorf("%s: %v", sys.Name, err)
			continue
		}
		if err := plan.Validate(sys); err != nil {
			t.Errorf("%s: invalid plan: %v", sys.Name, err)
		}
		if !(pred.Efficiency > 0 && pred.Efficiency <= 1) {
			t.Errorf("%s: efficiency %v", sys.Name, pred.Efficiency)
		}
	}
}

func TestPredictRejectsInvalidPlan(t *testing.T) {
	sys := twoLevel(24)
	if _, err := New().Predict(sys, pattern.Plan{Tau0: 0, Levels: []int{1, 2}, Counts: []int{1}}); err == nil {
		t.Fatal("τ0=0 accepted")
	}
}

func TestOptimizeRejectsInvalidSystem(t *testing.T) {
	bad := twoLevel(24)
	bad.MTBF = 0
	if _, _, err := New().Optimize(bad); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestAnalyticPlanClosedForm(t *testing.T) {
	// W_1 = sqrt(2·δ_1/λ_1) exactly for the two-level system.
	sys := twoLevel(24)
	plan, err := AnalyticPlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	l1 := sys.LevelRate(1)
	want := math.Sqrt(2 * 0.333 / l1)
	if math.Abs(plan.Tau0-want) > 1e-9 {
		t.Fatalf("τ0 = %v, want %v", plan.Tau0, want)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	if plan.NumUsed() != 2 {
		t.Fatalf("plan = %v", plan)
	}
	// N_1 + 1 ≈ round(W_2/W_1).
	l2 := sys.LevelRate(2)
	w2 := math.Sqrt(2 * 0.833 / l2)
	wantN := int(math.Round(w2/want)) - 1
	if plan.Counts[0] != wantN {
		t.Fatalf("N_1 = %d, want %d", plan.Counts[0], wantN)
	}
}

func TestAnalyticPlanMonotoneDistances(t *testing.T) {
	// A cheaper-but-rarer upper level must not produce a shorter
	// distance than the level below (monotonicity enforcement).
	sys := &system.System{
		Name: "inverted", MTBF: 30, BaselineTime: 1000,
		Levels: []system.Level{
			{Checkpoint: 5, Restart: 5, SeverityProb: 0.1},
			{Checkpoint: 0.1, Restart: 0.1, SeverityProb: 0.9},
		},
	}
	plan, err := AnalyticPlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	for _, n := range plan.Counts {
		if n < 0 {
			t.Fatalf("negative count in %v", plan)
		}
	}
}

func TestAnalyticPlanZeroRateLevel(t *testing.T) {
	sys := &system.System{
		Name: "zerosev", MTBF: 30, BaselineTime: 1000,
		Levels: []system.Level{
			{Checkpoint: 0.2, Restart: 0.2, SeverityProb: 1},
			{Checkpoint: 2, Restart: 2, SeverityProb: 0},
		},
	}
	plan, err := AnalyticPlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Level 2 never fires: it inherits level 1's distance → N_1 = 0.
	if plan.Counts[0] != 0 {
		t.Fatalf("plan = %v", plan)
	}
}

func TestAnalyticVersusSweep(t *testing.T) {
	// The reference sweep optimizes the same first-order objective over
	// full-level patterns (96 τ0 points, the default counts, refined),
	// so it must be at least as good by that objective's own prediction.
	sys := twoLevel(12)
	_, pa, err := New().Optimize(sys)
	if err != nil {
		t.Fatal(err)
	}
	ref := optimize.Settings{Tau0Points: 96, CountVals: optimize.DefaultCounts()}
	res, err := optimize.Sweep(ref.Space(sys, [][]int{pattern.AllLevels(sys)}), func(p pattern.Plan) (float64, bool) {
		expected, work, err := periodTime(sys, p)
		if err != nil || !(work > 0) {
			return 0, false
		}
		// Minimizing normalized period time maximizes efficiency.
		return expected / work, true
	})
	if err != nil {
		t.Fatal(err)
	}
	// res.ExpectedTime is the normalized period time = 1/efficiency.
	ps := model.NewPrediction(sys.BaselineTime, sys.BaselineTime*res.ExpectedTime)
	if ps.Efficiency < pa.Efficiency-1e-6 {
		t.Fatalf("sweep %.4f worse than analytic %.4f on shared objective",
			ps.Efficiency, pa.Efficiency)
	}
	// And they should broadly agree for two levels.
	if math.Abs(ps.Efficiency-pa.Efficiency) > 0.02 {
		t.Fatalf("variants disagree: %.4f vs %.4f", ps.Efficiency, pa.Efficiency)
	}
}

func TestAnalyticTau0ClampedToBaseline(t *testing.T) {
	sys := twoLevel(1e9)
	sys.BaselineTime = 10
	plan, err := AnalyticPlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tau0 > 10 {
		t.Fatalf("τ0 = %v exceeds T_B", plan.Tau0)
	}
}
