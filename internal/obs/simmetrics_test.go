package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// failureHeavyConfig returns a D4 scenario with a short-interval plan:
// plenty of failures, checkpoints at two levels, and scratch restarts.
func failureHeavyConfig(t *testing.T) sim.Scenario {
	t.Helper()
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	}
	if err := cfg.Plan.Validate(sys); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSimMetricsInvariant checks, over a seeded 1000-trial run, that the
// event-stream reconstruction partitions wall time exactly: per trial,
// Last().Total() == WallTime within 1e-9, and each category agrees with
// the engine's own Breakdown accounting.
func TestSimMetricsInvariant(t *testing.T) {
	cfg := failureHeavyConfig(t)
	m := NewSimMetrics()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(m)
	seed := rng.Campaign(1, "obs-invariant")

	const trials = 1000
	var wantCompleted, wantCapped, wantScratch uint64
	wantFailures := map[int]uint64{}
	sumWall := 0.0
	for i := 0; i < trials; i++ {
		res, err := eng.Run(seed.Trial(i))
		if err != nil {
			t.Fatal(err)
		}
		last := m.Last()
		if diff := math.Abs(last.Total() - last.WallTime); diff > 1e-9 {
			t.Fatalf("trial %d: breakdown total %v != wall %v (diff %g)",
				i, last.Total(), last.WallTime, diff)
		}
		if last.WallTime != res.WallTime {
			t.Fatalf("trial %d: reconstructed wall %v != engine wall %v", i, last.WallTime, res.WallTime)
		}
		// The reconstruction must agree with the engine's own accounting.
		b := res.Breakdown
		checks := []struct {
			name      string
			got, want float64
		}{
			{"useful", last.ComputeUseful, b.UsefulCompute},
			{"rework", last.ComputeRework, b.LostCompute},
			{"ckptOK", sumSlice(last.CheckpointOK), b.CheckpointOK},
			{"ckptWasted", sumSlice(last.CheckpointWasted), b.CheckpointFail},
			{"restartOK", sumSlice(last.RestartOK), b.RestartOK},
			{"restartFail", sumSlice(last.RestartFailed), b.RestartFail},
		}
		for _, c := range checks {
			if math.Abs(c.got-c.want) > 1e-6 {
				t.Fatalf("trial %d: %s reconstructed %v vs engine %v", i, c.name, c.got, c.want)
			}
		}
		if res.Completed {
			wantCompleted++
		} else {
			wantCapped++
		}
		wantScratch += uint64(res.ScratchRestarts)
		for s, n := range res.Failures {
			wantFailures[s+1] += uint64(n)
		}
		sumWall += res.WallTime
	}

	if m.Trials() != trials {
		t.Errorf("trials counter = %d, want %d", m.Trials(), trials)
	}
	s := m.Snapshot()
	if got := s.Counter("sim_trials_completed"); got != wantCompleted {
		t.Errorf("completed = %d, want %d", got, wantCompleted)
	}
	if got := s.Counter("sim_trials_capped"); got != wantCapped {
		t.Errorf("capped = %d, want %d", got, wantCapped)
	}
	if got := s.Counter("sim_scratch_restarts_total"); got != wantScratch {
		t.Errorf("scratch = %d, want %d", got, wantScratch)
	}
	var wantTotalFailures uint64
	for sev, want := range wantFailures {
		wantTotalFailures += want
		got := m.Registry().Counter("sim_failures_total", "severity", levelStr(sev)).Value()
		if got != want {
			t.Errorf("failures severity %d = %d, want %d", sev, got, want)
		}
	}
	if got := s.Counter("sim_failures_total"); got != wantTotalFailures {
		t.Errorf("failure family total = %d, want %d", got, wantTotalFailures)
	}
	agg := m.Aggregate()
	if math.Abs(agg.WallTime-sumWall) > 1e-6 {
		t.Errorf("aggregate wall %v != summed wall %v", agg.WallTime, sumWall)
	}
	if math.Abs(agg.Total()-agg.WallTime) > trials*1e-9 {
		t.Errorf("aggregate total %v != aggregate wall %v", agg.Total(), agg.WallTime)
	}
	if m.Registry().Histogram("sim_trial_wall_minutes").Count() != trials {
		t.Errorf("wall histogram count = %d", m.Registry().Histogram("sim_trial_wall_minutes").Count())
	}
}

func sumSlice(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// TestPoolCampaignMerge runs a parallel campaign with one shard per
// worker and checks the merged aggregate matches the campaign's own
// statistics.
func TestPoolCampaignMerge(t *testing.T) {
	const trials = 200
	camp := sim.Campaign{
		Scenario: failureHeavyConfig(t),
		Trials:   trials,
		Seed:     rng.Campaign(1, "obs-pool"),
	}
	pool := &Pool{}
	camp.ObserverFactory = pool.Observer
	var mu sync.Mutex
	var wallSum float64
	var done int
	camp.TrialDone = func(r sim.TrialResult) {
		mu.Lock()
		wallSum += r.WallTime
		done++
		mu.Unlock()
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if done != trials {
		t.Errorf("TrialDone ran %d times, want %d", done, trials)
	}
	m, err := pool.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if m.Trials() != trials {
		t.Fatalf("merged trials = %d, want %d", m.Trials(), trials)
	}
	agg := m.Aggregate()
	if math.Abs(agg.WallTime-wallSum) > 1e-6 {
		t.Errorf("merged wall %v != TrialDone sum %v", agg.WallTime, wallSum)
	}
	if math.Abs(agg.Total()-agg.WallTime) > trials*1e-9 {
		t.Errorf("merged total %v != merged wall %v", agg.Total(), agg.WallTime)
	}
	// Cross-check against the campaign's mean breakdown.
	want := res.MeanBreakdown
	n := float64(trials)
	if got := agg.ComputeUseful / n; math.Abs(got-want.UsefulCompute) > 1e-6 {
		t.Errorf("mean useful %v vs campaign %v", got, want.UsefulCompute)
	}
	if got := sumSlice(agg.RestartOK) / n; math.Abs(got-want.RestartOK) > 1e-6 {
		t.Errorf("mean restartOK %v vs campaign %v", got, want.RestartOK)
	}
	if got := int(m.Snapshot().Counter("sim_trials_completed")); got != res.Completed {
		t.Errorf("merged completed %d vs campaign %d", got, res.Completed)
	}
}

func TestSimMetricsReusedAcrossTrials(t *testing.T) {
	cfg := failureHeavyConfig(t)
	m := NewSimMetrics()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(m)
	seed := rng.Campaign(3, "obs-reuse")
	var walls []float64
	for i := 0; i < 3; i++ {
		res, err := eng.Run(seed.Trial(i))
		if err != nil {
			t.Fatal(err)
		}
		walls = append(walls, res.WallTime)
		// Last must describe only the just-finished trial.
		if m.Last().WallTime != res.WallTime {
			t.Fatalf("trial %d: Last().WallTime = %v, want %v", i, m.Last().WallTime, res.WallTime)
		}
	}
	if m.Trials() != 3 {
		t.Errorf("trials = %d", m.Trials())
	}
	if agg := m.Aggregate(); math.Abs(agg.WallTime-(walls[0]+walls[1]+walls[2])) > 1e-9 {
		t.Errorf("aggregate wall %v != %v", agg.WallTime, walls[0]+walls[1]+walls[2])
	}
}

func TestWriteSummary(t *testing.T) {
	m := NewSimMetrics()
	eng, err := sim.NewEngine(failureHeavyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(m)
	if _, err := eng.Run(rng.Campaign(1, "obs-summary").Trial(0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"phase breakdown over 1 trial(s)",
		"compute/useful",
		"compute/rework",
		"checkpoint L1 ok",
		"total",
		"failures by severity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestMultiSkipsNil(t *testing.T) {
	m := NewSimMetrics()
	fan := Multi(nil, m, nil)
	fan.Observe(sim.Event{Kind: sim.EvPhaseStart, Phase: sim.PhaseCompute})
	fan.Observe(sim.Event{Kind: sim.EvPhaseEnd, Phase: sim.PhaseCompute, Time: 2, Progress: 2})
	fan.Observe(sim.Event{Kind: sim.EvComplete, Time: 2, Progress: 2})
	if m.Trials() != 1 {
		t.Fatalf("event fan-out missed the live observer: trials = %d", m.Trials())
	}
	if m.Last().ComputeUseful != 2 {
		t.Fatalf("useful = %v, want 2", m.Last().ComputeUseful)
	}
}

// TestObservedTrialAllocFree pins the satellite guarantee that the
// observed-trial hot path performs zero heap allocations in steady
// state: after a warmup (which registers every instrument and sizes the
// recycled per-level scratch), further observed trials must not
// allocate. This is the regression guard for the 8 allocs/op that
// resetTrial's slice drop used to cost.
func TestObservedTrialAllocFree(t *testing.T) {
	cfg := failureHeavyConfig(t)
	m := NewSimMetrics()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(m)
	seed := rng.Campaign(1, "obs-allocs")
	for i := 0; i < 50; i++ {
		if _, err := eng.Run(seed.Trial(i)); err != nil {
			t.Fatal(err)
		}
	}
	trial := 50
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Run(seed.Trial(trial)); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	if allocs != 0 {
		t.Fatalf("observed trial allocates %.1f times per run, want 0", allocs)
	}
}
