package experiments

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

func d4(t *testing.T) *system.System {
	t.Helper()
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// ISSUE 7 acceptance: on a Table I system, CRN pairing must shrink the
// 95% CI half-width of at least one technique-pair difference by >= 5x
// at equal trial count, and sequential stopping must reach the unpaired
// width with >= 10x fewer trials. Stopping checks come every 64 trials,
// so the budget is 1280 trials: a 10x saving stops at 64 or 128.
func TestCRNVarianceReductionOnD4(t *testing.T) {
	const budget = 1280
	opt := Options{Trials: budget, Seed: 7, Fast: true}
	rep, err := CompareTechniques(d4(t), BestTechniques, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Paired.TrialsRun != budget {
		t.Fatalf("no stopping requested but ran %d trials", rep.Paired.TrialsRun)
	}
	c := rep.Comparison("dauwe", "di")
	if c == nil {
		t.Fatal("missing dauwe vs di comparison")
	}
	shrink := c.WelchCIHalf / c.CIHalf
	t.Logf("dauwe vs di: diff=%.5f ci=%.5f welch=%.5f shrink=%.2fx corr=%.4f varred=%.1fx",
		c.MeanDiff, c.CIHalf, c.WelchCIHalf, shrink, c.Corr, c.VarReduction)
	if shrink < 5 {
		t.Errorf("paired CI shrink = %.2fx, acceptance requires >= 5x", shrink)
	}

	// Sequential stopping: ask only for the width the unpaired Welch
	// interval achieved with the full budget.
	opt.CITarget = c.WelchCIHalf
	seq, err := CompareTechniques(d4(t), BestTechniques, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential: ran %d of %d trials (saved %d)",
		seq.Paired.TrialsRun, seq.Paired.Budget, seq.Paired.TrialsSaved())
	if seq.Paired.TrialsRun*10 > budget {
		t.Errorf("stopping ran %d trials; acceptance requires <= %d (10x saving)", seq.Paired.TrialsRun, budget/10)
	}
	sc := seq.Comparison("dauwe", "di")
	if sc.CIHalf > opt.CITarget {
		t.Errorf("stopped CI %.5f exceeds target %.5f", sc.CIHalf, opt.CITarget)
	}
	// The stopped estimate must agree with the full-budget one within
	// the (much wider) target interval on every pair.
	for _, full := range rep.Paired.Comparisons {
		stopped := seq.Paired.Comparison(full.A, full.B)
		if math.Abs(stopped.MeanDiff-full.MeanDiff) > 2*opt.CITarget {
			t.Errorf("pair %d vs %d: stopped diff %.5f far from full-budget %.5f",
				full.A, full.B, stopped.MeanDiff, full.MeanDiff)
		}
	}
	// The martingale control must be live on the marginal means.
	for i, cv := range rep.Paired.ArmCV {
		if cv.Corr > -0.2 {
			t.Errorf("arm %d (%s): control correlation %.3f, want negative", i, rep.Techniques[i], cv.Corr)
		}
	}
}

// CRN is pure orchestration: each technique's marginal campaign under
// CompareTechniques must be bitwise identical to a standalone non-CRN
// campaign of the same plan on the shared seed.
func TestCRNMarginalsMatchStandaloneCampaigns(t *testing.T) {
	sys := d4(t)
	opt := Options{Trials: 60, Seed: 11, Fast: true}
	rep, err := CompareTechniques(sys, BestTechniques, opt)
	if err != nil {
		t.Fatal(err)
	}
	seed := rng.Campaign(11, "crn").Scenario(sys.Name)
	for i, cell := range rep.Cells {
		solo, err := sim.Campaign{
			Scenario: opt.scenarioFor(sys, cell.Plan),
			Trials:   60,
			Seed:     seed,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(solo.Efficiencies) != len(cell.Sim.Efficiencies) {
			t.Fatalf("%s: trial count mismatch", cell.Technique)
		}
		for k := range solo.Efficiencies {
			if math.Float64bits(solo.Efficiencies[k]) != math.Float64bits(cell.Sim.Efficiencies[k]) {
				t.Fatalf("%s trial %d: CRN efficiency bits differ from standalone run", cell.Technique, k)
			}
		}
		if solo.Efficiency != cell.Sim.Efficiency || solo.WallTime != cell.Sim.WallTime {
			t.Fatalf("%s: CRN summary differs from standalone run", rep.Techniques[i])
		}
	}
}

// The figure pipelines must carry CRN end-to-end: paired rows attached,
// paired significance used, telemetry counters fed.
func TestFig5WithCRN(t *testing.T) {
	sink := obs.NewSimMetrics()
	opt := Options{Trials: 6, Seed: 3, MaxWallFactor: 15, Fast: true, CRN: true, Metrics: sink}
	r, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paired) != len(r.Scenarios) {
		t.Fatalf("Paired rows = %d, want one per scenario (%d)", len(r.Paired), len(r.Scenarios))
	}
	if len(r.DauweBeatsMoody) != len(r.Scenarios) {
		t.Fatalf("verdicts = %d, want %d", len(r.DauweBeatsMoody), len(r.Scenarios))
	}
	for i, p := range r.Paired {
		if p == nil || len(p.Comparisons) != 3 {
			t.Fatalf("row %d: missing pairwise comparisons", i)
		}
		if p.TrialsRun != 6 {
			t.Fatalf("row %d ran %d trials, want 6", i, p.TrialsRun)
		}
	}
	snap := sink.Registry().Snapshot()
	var run, saved, found uint64 = 0, 1, 0
	for _, c := range snap.Counters {
		switch c.Name {
		case "vr_trials_run_total":
			run, found = c.Value, found+1
		case "vr_trials_saved_total":
			saved, found = c.Value, found+1
		}
	}
	if found != 2 {
		t.Fatalf("vr counters missing from registry snapshot: %+v", snap.Counters)
	}
	if want := uint64(len(r.Scenarios) * 3 * 6); run != want {
		t.Errorf("vr_trials_run_total = %d, want %d", run, want)
	}
	if saved != 0 {
		t.Errorf("vr_trials_saved_total = %d, want 0 without a CI target", saved)
	}
	// Simulator trials also flowed into the shared sink.
	if got := sink.Trials(); got != uint64(len(r.Scenarios)*3*6) {
		t.Errorf("sink saw %d trials, want %d", got, len(r.Scenarios)*3*6)
	}
}

// Sequential-stopping and streaming options that a run cannot honour
// are errors, not silently ignored: CITarget needs CRN, and CRN's
// paired statistics need the exact sink.
func TestCRNOptionConflicts(t *testing.T) {
	for name, opt := range map[string]Options{
		"CITarget without CRN": {CITarget: 0.01},
		"NaN CITarget":         {CRN: true, CITarget: math.NaN()},
		"Stream under CRN":     {CRN: true, Stream: true},
	} {
		opt.Trials, opt.Seed, opt.Fast = 4, 3, true
		if _, err := Fig5(opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Under CRN each technique's arm checkpoints like a figure cell: one
// file per arm, and a resumed comparison equals the uninterrupted one.
// The unreachable target runs every batch of 64, the last one partial.
func TestCompareTechniquesCheckpointResume(t *testing.T) {
	opt := Options{Trials: 144, Seed: 5, Fast: true, CITarget: 1e-9}
	want, err := CompareTechniques(d4(t), BestTechniques, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.CheckpointDir, opt.CheckpointInterval = t.TempDir(), 8
	if _, err := CompareTechniques(d4(t), BestTechniques, opt); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(opt.CheckpointDir, "*.ckpt"))
	if err != nil || len(files) != len(BestTechniques) {
		t.Fatalf("checkpoint files = %v (%v), want one per arm", files, err)
	}
	opt.Resume = true
	got, err := CompareTechniques(d4(t), BestTechniques, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Paired, got.Paired) {
		t.Error("resumed comparison differs from the uninterrupted one")
	}
}
