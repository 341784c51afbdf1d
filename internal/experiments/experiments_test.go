package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

func testOpts() Options {
	return Options{Trials: 40, Seed: 7, MaxWallFactor: 60}
}

func eval(t *testing.T, sysName, tech string, opt Options) Cell {
	t.Helper()
	sys, err := system.ByName(sysName)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Evaluate(sys, tech, opt.trials(200), rng.Campaign(opt.seed(), "test"), opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMultilevelBeatsDalyOnHardSystem(t *testing.T) {
	// The paper's first Figure 2 trend: on failure-heavy systems the
	// multilevel techniques clearly beat traditional checkpoint/restart.
	opt := testOpts()
	daly := eval(t, "D4", "daly", opt)
	dauwe := eval(t, "D4", "dauwe", opt)
	if !(dauwe.Sim.Efficiency.Mean > daly.Sim.Efficiency.Mean+0.05) {
		t.Fatalf("dauwe %.3f should clearly beat daly %.3f on D4",
			dauwe.Sim.Efficiency.Mean, daly.Sim.Efficiency.Mean)
	}
}

func TestDauwePredictionAccurate(t *testing.T) {
	// The paper's headline: Dauwe predictions land close to simulation.
	opt := testOpts()
	opt.Trials = 80
	for _, sysName := range []string{"D1", "D2", "D4"} {
		c := eval(t, sysName, "dauwe", opt)
		if err := math.Abs(c.PredictionError()); err > 0.05 {
			t.Errorf("%s: dauwe prediction error %.3f (pred %.3f, sim %.3f)",
				sysName, err, c.Predicted.Efficiency, c.Sim.Efficiency.Mean)
		}
	}
}

func TestDiOverestimatesOnExtremeSystem(t *testing.T) {
	// Section IV-G: Di's failure-free-C/R assumption overestimates
	// efficiency when MTBF approaches checkpoint/restart times.
	opt := testOpts()
	opt.Trials = 80
	c := eval(t, "D8", "di", opt)
	if !(c.PredictionError() > 0.01) {
		t.Fatalf("di on D8 should overestimate: error %.3f (pred %.3f, sim %.3f)",
			c.PredictionError(), c.Predicted.Efficiency, c.Sim.Efficiency.Mean)
	}
}

func TestBenoitOptimisticOnHardSystem(t *testing.T) {
	opt := testOpts()
	c := eval(t, "D7", "benoit", opt)
	if !(c.PredictionError() > 0.02) {
		t.Fatalf("benoit on D7 should be optimistic: error %.3f", c.PredictionError())
	}
}

func TestFig6Sorting(t *testing.T) {
	f4 := &Fig4Result{
		Scenarios: []Scenario{
			{MTBF: 3, PFSCost: 10},
			{MTBF: 9, PFSCost: 10},
			{MTBF: 15, PFSCost: 10},
		},
		Techniques: []string{"dauwe", "di", "moody"},
	}
	mk := func(sys string, errs [3]float64) []Cell {
		row := make([]Cell, 3)
		for i := range row {
			row[i] = Cell{System: sys, Technique: f4.Techniques[i]}
			row[i].Predicted.Efficiency = errs[i]
			// Sim mean 0 so PredictionError == Predicted.Efficiency.
		}
		return row
	}
	f4.Cells = [][]Cell{
		mk("a", [3]float64{0.01, 0.02, -0.30}),
		mk("b", [3]float64{0.02, 0.03, 0.05}),
		mk("c", [3]float64{0.00, 0.01, -0.10}),
	}
	f6, err := Fig6FromFig4(f4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 3 {
		t.Fatalf("rows = %d", len(f6.Rows))
	}
	// Sorted ascending by |moody error|: 0.05, 0.10, 0.30.
	got := []float64{f6.Rows[0].Errors[2], f6.Rows[1].Errors[2], f6.Rows[2].Errors[2]}
	if got[0] != 0.05 || got[1] != -0.10 || got[2] != -0.30 {
		t.Fatalf("sort order wrong: %v", got)
	}
}

func TestFig6RequiresMoody(t *testing.T) {
	f4 := &Fig4Result{Techniques: []string{"dauwe", "di"}}
	if _, err := Fig6FromFig4(f4); err == nil {
		t.Fatal("missing moody accepted")
	}
}

func TestScenarioGrid(t *testing.T) {
	scens, err := scenarios([]float64{26, 3}, []float64{10, 40}, 1440)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 4 {
		t.Fatalf("scenarios = %d", len(scens))
	}
	for _, sc := range scens {
		if sc.System.MTBF != sc.MTBF {
			t.Errorf("scenario %s MTBF mismatch", sc.Label())
		}
		top := sc.System.Levels[sc.System.NumLevels()-1]
		if top.Checkpoint != sc.PFSCost || top.Restart != sc.PFSCost {
			t.Errorf("scenario %s PFS cost mismatch", sc.Label())
		}
		if sc.System.BaselineTime != 1440 {
			t.Errorf("scenario %s baseline mismatch", sc.Label())
		}
		if err := sc.System.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", sc.Label(), err)
		}
	}
	if scens[0].Label() != "mtbf=26/pfs=10" {
		t.Fatalf("label = %s", scens[0].Label())
	}
}

func TestShortAppAdvantage(t *testing.T) {
	// The Figure 5 effect on one grid point: for the 30-minute app with
	// a 20-minute PFS cost, Dauwe (which skips level-L) beats Moody
	// (which cannot).
	base, err := system.ByName("B")
	if err != nil {
		t.Fatal(err)
	}
	sys := base.WithTopCost(20).WithMTBF(15).WithBaseline(30)
	opt := testOpts()
	opt.Trials = 120
	seed := rng.Campaign(11, "shortapp")
	dauwe, err := Evaluate(sys, "dauwe", opt.Trials, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	moody, err := Evaluate(sys, "moody", opt.Trials, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dauwe.Plan.UsesLevel(4) {
		t.Fatalf("dauwe plan should skip PFS: %v", dauwe.Plan)
	}
	if !moody.Plan.UsesLevel(4) {
		t.Fatalf("moody plan should keep PFS: %v", moody.Plan)
	}
	if !(dauwe.Sim.Efficiency.Mean > moody.Sim.Efficiency.Mean) {
		t.Fatalf("dauwe %.3f should beat moody %.3f on the short app",
			dauwe.Sim.Efficiency.Mean, moody.Sim.Efficiency.Mean)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.trials(200) != 200 || o.seed() != 1 || o.wallFactor() != 150 {
		t.Fatal("zero-value defaults wrong")
	}
	o = Options{Trials: 7, Seed: 9, MaxWallFactor: 3}
	if o.trials(200) != 7 || o.seed() != 9 || o.wallFactor() != 3 {
		t.Fatal("overrides ignored")
	}
	var logged []string
	o.Progress = func(s string) { logged = append(logged, s) }
	o.log("x %d", 5)
	if len(logged) != 1 || logged[0] != "x 5" {
		t.Fatalf("log = %v", logged)
	}
}

func TestEvaluateUnknownTechnique(t *testing.T) {
	sys, _ := system.ByName("D1")
	if _, err := Evaluate(sys, "nope", 5, rng.Campaign(1, "x"), Options{}); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestFullFigurePipelinesSmoke(t *testing.T) {
	// End-to-end smoke of every figure harness at tiny scale; the
	// scientific properties are asserted by the focused tests above.
	if testing.Short() {
		t.Skip("runs all optimizers")
	}
	opt := Options{Trials: 2, Seed: 3, MaxWallFactor: 15, Fast: true}

	f2, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Systems) != 11 || len(f2.Cells) != 11 || len(f2.Cells[0]) != len(Fig2Techniques) {
		t.Fatalf("fig2 shape wrong: %d systems × %d techniques", len(f2.Systems), len(f2.Cells[0]))
	}

	f3, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f3.Cells {
		for _, c := range f3.Cells[i] {
			if tot := c.Sim.BreakdownShare.Total(); tot > 0 && mathAbs(tot-1) > 1e-9 {
				t.Fatalf("fig3 %s/%s breakdown share %v", c.System, c.Technique, tot)
			}
		}
	}

	f4, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Scenarios) != 20 {
		t.Fatalf("fig4 scenarios = %d", len(f4.Scenarios))
	}
	f6, err := Fig6FromFig4(f4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 20 {
		t.Fatalf("fig6 rows = %d", len(f6.Rows))
	}

	f5, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Scenarios) != 10 || len(f5.DauweBeatsMoody) != 10 {
		t.Fatalf("fig5 shape wrong: %d scenarios, %d verdicts", len(f5.Scenarios), len(f5.DauweBeatsMoody))
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestEvaluateFeedsSweepMetrics(t *testing.T) {
	sys, _ := system.ByName("D1")
	sink := obs.NewSimMetrics()
	opt := Options{Metrics: sink, MaxWallFactor: 15, Fast: true}
	if _, err := Evaluate(sys, "dauwe", 2, rng.Campaign(1, "x"), opt); err != nil {
		t.Fatal(err)
	}
	snap := sink.Registry().Snapshot()
	if snap.Counter("opt_candidates_total") == 0 {
		t.Fatal("optimizer sweep telemetry missing from the global sink")
	}
	if snap.Counter("opt_evaluations_total")+snap.Counter("opt_pruned_total") != snap.Counter("opt_candidates_total") {
		t.Fatal("sweep candidate accounting broken")
	}
}

// TestCellMetricsJSON: a cell that collected metrics encodes their
// snapshot, counters included, and a Figure 5 run without metrics still
// encodes every cell's Metrics as null, the bytes bench/pins.json
// digests.
func TestCellMetricsJSON(t *testing.T) {
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MaxWallFactor: 15, Fast: true, Metrics: obs.NewSimMetrics()}
	c, err := Evaluate(sys, "daly", 12, rng.Campaign(7, "json"), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Metrics obs.Snapshot }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Metrics.Counter("sim_trials_total"); got != 12 {
		t.Errorf("encoded sim_trials_total = %d, want 12: %s", got, b)
	}
	if testing.Short() {
		return
	}
	f5, err := Fig5(Options{Trials: 2, Seed: 3, MaxWallFactor: 15, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if b, err = json.Marshal(f5); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, row := range f5.Cells {
		cells += len(row)
	}
	if n := bytes.Count(b, []byte(`"Metrics":null`)); cells == 0 || n != cells {
		t.Errorf(`%d "Metrics":null fields for %d cells`, n, cells)
	}
}

// TestCheckAndFlightAcrossRows runs a figure grid, rows in flight at
// once, with the invariant checker and the flight recorder on every
// cell: every cell reports its checked trials, the shared FlightLog
// gathers streams of every technique, and the result marshals to the
// same bytes as the unobserved run (the grid pins hash that encoding).
func TestCheckAndFlightAcrossRows(t *testing.T) {
	opt := Options{Trials: 8, Seed: 7, Fast: true, Workers: 2}
	plain, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Check, opt.Flight = true, &FlightLog{}
	checked, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	got, _ := json.Marshal(checked)
	if !bytes.Equal(got, want) {
		t.Error("checked, recorded run differs from the plain run")
	}
	for _, row := range checked.Cells {
		for _, c := range row {
			if c.Conformance == nil || c.Conformance.Trials != opt.Trials {
				t.Errorf("%s/%s: conformance %+v, want %d checked trials", c.System, c.Technique, c.Conformance, opt.Trials)
			}
		}
	}
	labels := map[string]bool{}
	for _, s := range opt.Flight.Dump("").Streams {
		labels[s.Label] = true
	}
	for _, tech := range BestTechniques {
		if !labels[tech] {
			t.Errorf("no flight streams labelled %q (got %v)", tech, labels)
		}
	}
}

// TestFlightLogSumsDroppedHolds adds two campaigns' flight pools, whose
// judge held every trial past the recorders' cap, to one FlightLog: its
// dump carries both pools' dropped holds, summed.
func TestFlightLogSumsDroppedHolds(t *testing.T) {
	sys := d4(t)
	var l FlightLog
	want := 0
	for _, label := range []string{"dauwe", "daly"} {
		pool := &trace.FlightPool{}
		camp := sim.Campaign{
			Scenario: sim.Scenario{System: sys, Plan: pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}},
			Trials:   40,
			Workers:  1,
			Seed:     rng.Campaign(7, "flight-log").Scenario(label),
			ObserverFactory: func(worker int) sim.Observer {
				rec := pool.Recorder(worker)
				rec.SetJudge(func(sim.Event) (string, bool) { return "every trial", true })
				return rec
			},
			TrialStart: pool.TrialStart,
		}
		if _, err := camp.Run(); err != nil {
			t.Fatal(err)
		}
		if pool.Dropped() == 0 {
			t.Fatalf("%s: no hold dropped", label)
		}
		want += pool.Dropped()
		l.add(label, pool)
	}
	if d := l.Dump("run"); d.Dropped != want || d.RunID != "run" {
		t.Errorf("dump: %d dropped, run %q; want %d, run %q", d.Dropped, d.RunID, want, "run")
	}
}
