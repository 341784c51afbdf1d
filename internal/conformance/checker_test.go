package conformance

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// scenarioMatrix is the checker's acceptance sweep: every protocol
// feature (multilevel patterns, level exclusion, both restart policies,
// async top flush, wall caps) over failure-heavy Table I systems.
func scenarioMatrix(t *testing.T) []sim.Scenario {
	t.Helper()
	byName := func(name string) *system.System {
		s, err := system.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	b := byName("B")
	d4 := byName("D4")
	d8 := byName("D8")
	m := byName("M")
	return []sim.Scenario{
		{System: d4, Plan: pattern.Plan{Tau0: 1.5, Counts: []int{3}, Levels: []int{1, 2}}},
		{System: d4, Plan: pattern.Plan{Tau0: 1.5, Counts: []int{3}, Levels: []int{1, 2}}, Policy: sim.EscalatePolicy},
		{System: d4, Plan: pattern.Plan{Tau0: 2, Levels: []int{1}}},                      // top level skipped: scratch restarts
		{System: d4, Plan: pattern.Plan{Tau0: 2, Levels: []int{2}}},                      // bottom level skipped
		{System: d8, Plan: pattern.Plan{Tau0: 1, Counts: []int{2}, Levels: []int{1, 2}}}, // failure-saturated
		{System: d8, Plan: pattern.Plan{Tau0: 8, Levels: []int{2}}, MaxWallFactor: 5},    // hits the wall cap
		{System: b, Plan: pattern.Plan{Tau0: 1.2, Counts: []int{2, 1, 1}, Levels: []int{1, 2, 3, 4}}},
		{System: b, Plan: pattern.Plan{Tau0: 1.2, Counts: []int{3, 1}, Levels: []int{1, 2, 4}}},
		{System: b, Plan: pattern.Plan{Tau0: 1.2, Counts: []int{3, 1}, Levels: []int{1, 2, 4}}, AsyncTopFlush: true},
		{System: b, Plan: pattern.Plan{Tau0: 0.9, Counts: []int{2, 1, 1}, Levels: []int{1, 2, 3, 4}}, AsyncTopFlush: true, Policy: sim.EscalatePolicy},
		{System: m, Plan: pattern.Plan{Tau0: 25, Counts: []int{4, 2}, Levels: []int{1, 2, 3}}},
		{System: m, Plan: pattern.Plan{Tau0: 25, Counts: []int{4, 2}, Levels: []int{1, 2, 3}}, AsyncTopFlush: true},
	}
}

func TestCheckerCleanOnScenarioMatrix(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for i, scn := range scenarioMatrix(t) {
		ck, err := NewChecker(scn)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		eng.Observe(ck)
		seed := rng.Campaign(11, "checker-matrix").Scenario(scn.System.Name)
		for trial := 0; trial < trials; trial++ {
			if _, err := eng.Run(seed.Trial(100*i + trial)); err != nil {
				t.Fatalf("scenario %d trial %d: %v", i, trial, err)
			}
		}
		if err := ck.Err(); err != nil {
			t.Errorf("scenario %d (%s async=%v policy=%v): %v",
				i, scn.Plan, scn.AsyncTopFlush, scn.Policy, err)
		}
		if ck.TrialsChecked() != trials {
			t.Errorf("scenario %d: checked %d trials, want %d", i, ck.TrialsChecked(), trials)
		}
	}
}

// TestCheckerCrossChecksSimMetrics pins the ISSUE's cross-check: the
// checker's independent per-level phase accounting must agree with the
// obs.SimMetrics reconstruction of the same event stream, and both must
// partition the wall time.
func TestCheckerCrossChecksSimMetrics(t *testing.T) {
	for i, scn := range scenarioMatrix(t) {
		ck, err := NewChecker(scn)
		if err != nil {
			t.Fatal(err)
		}
		sm := obs.NewSimMetrics()
		eng, err := sim.NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		eng.Observe(obs.Multi(ck, sm))
		seed := rng.Campaign(13, "crosscheck").Scenario(scn.System.Name)
		for trial := 0; trial < 8; trial++ {
			res, err := eng.Run(seed.Trial(1000*i + trial))
			if err != nil {
				t.Fatal(err)
			}
			got := ck.LastTotals()
			want := sm.Last()
			eps := 1e-6 * (1 + got.Wall)
			if math.Abs(got.Wall-res.WallTime) > eps {
				t.Fatalf("scenario %d: checker wall %v, trial wall %v", i, got.Wall, res.WallTime)
			}
			if d := math.Abs(got.Compute - (want.ComputeUseful + want.ComputeRework)); d > eps {
				t.Errorf("scenario %d trial %d: compute %v vs SimMetrics %v",
					i, trial, got.Compute, want.ComputeUseful+want.ComputeRework)
			}
			for lvl := range got.Checkpoint {
				var w float64
				if lvl < len(want.CheckpointOK) {
					w += want.CheckpointOK[lvl]
				}
				if lvl < len(want.CheckpointWasted) {
					w += want.CheckpointWasted[lvl]
				}
				if d := math.Abs(got.Checkpoint[lvl] - w); d > eps {
					t.Errorf("scenario %d trial %d: L%d checkpoint %v vs SimMetrics %v",
						i, trial, lvl+1, got.Checkpoint[lvl], w)
				}
			}
			for lvl := range got.Restart {
				var w float64
				if lvl < len(want.RestartOK) {
					w += want.RestartOK[lvl]
				}
				if lvl < len(want.RestartFailed) {
					w += want.RestartFailed[lvl]
				}
				if d := math.Abs(got.Restart[lvl] - w); d > eps {
					t.Errorf("scenario %d trial %d: L%d restart %v vs SimMetrics %v",
						i, trial, lvl+1, got.Restart[lvl], w)
				}
			}
			if d := math.Abs(got.Total() - got.Wall); d > eps {
				t.Errorf("scenario %d trial %d: totals %v do not partition wall %v", i, trial, got.Total(), got.Wall)
			}
		}
		if err := ck.Err(); err != nil {
			t.Errorf("scenario %d: %v", i, err)
		}
	}
}

// capture records an event stream for replay-with-corruption tests.
type capture struct{ events []sim.Event }

func (c *capture) Observe(e sim.Event) { c.events = append(c.events, e) }

// recordStream captures one failure-bearing trial of scn.
func recordStream(t *testing.T, scn sim.Scenario, label string) []sim.Event {
	t.Helper()
	cap := &capture{}
	eng, err := sim.NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(cap)
	seed := rng.Campaign(17, "corrupt").Scenario(label)
	for trial := 0; ; trial++ {
		if trial > 200 {
			t.Fatal("no trial with both a failure and a restart found")
		}
		cap.events = cap.events[:0]
		if _, err := eng.Run(seed.Trial(trial)); err != nil {
			t.Fatal(err)
		}
		var failures, restarts int
		for _, e := range cap.events {
			switch {
			case e.Kind == sim.EvFailure:
				failures++
			case e.Kind == sim.EvPhaseStart && e.Phase == sim.PhaseRestart:
				restarts++
			}
		}
		if failures > 0 && restarts > 0 {
			return cap.events
		}
	}
}

func replay(t *testing.T, scn sim.Scenario, events []sim.Event) *Checker {
	t.Helper()
	ck, err := NewChecker(scn)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		ck.Observe(e)
	}
	return ck
}

// TestCheckerDetectsCorruptedStreams corrupts a genuine event stream in
// targeted ways and asserts the matching invariant trips. This is the
// checker's own regression suite: if the engine ever drifts into one of
// these failure modes, the named invariant must catch it.
func TestCheckerDetectsCorruptedStreams(t *testing.T) {
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	scn := sim.Scenario{System: sys, Plan: pattern.Plan{Tau0: 1.5, Counts: []int{3}, Levels: []int{1, 2}}}
	events := recordStream(t, scn, "D4")

	index := func(pred func(sim.Event) bool) int {
		for i, e := range events {
			if pred(e) {
				return i
			}
		}
		t.Fatal("stream lacks the event shape the corruption needs")
		return -1
	}

	cases := []struct {
		name      string
		invariant string
		corrupt   func([]sim.Event) []sim.Event
	}{
		{"clock-reversal", "monotonic-clock", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool { return e.Time > 0 })
			ev[i].Time = -ev[i].Time
			return ev
		}},
		{"opening-not-compute", "trial-opening", func(ev []sim.Event) []sim.Event {
			ev[0].Phase = sim.PhaseCheckpoint
			return ev
		}},
		{"phase-gap", "phase-contiguity", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseStart && e.Phase == sim.PhaseCheckpoint
			})
			ev[i].Time += 1e-3
			return ev
		}},
		{"stretched-checkpoint", "phase-duration", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseEnd && e.Phase == sim.PhaseCheckpoint
			})
			ev[i].Time += 0.25
			// Keep downstream contiguity so only the duration trips.
			for j := i + 1; j < len(ev); j++ {
				ev[j].Time += 0.25
			}
			return ev
		}},
		{"wrong-odometer-level", "odometer", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseStart && e.Phase == sim.PhaseCheckpoint && e.Level == 1
			})
			ev[i].Level = 2
			return ev
		}},
		{"progress-teleport", "progress-frozen", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseEnd && e.Phase == sim.PhaseCheckpoint
			})
			ev[i].Progress += 0.5
			return ev
		}},
		{"illegal-restart-level", "restart-choice", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseStart && e.Phase == sim.PhaseRestart
			})
			// A level-0 read is always below any failure's severity.
			ev[i].Level = 0
			return ev
		}},
		{"phantom-severity", "failure-severity", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool { return e.Kind == sim.EvFailure })
			ev[i].Level = 9
			return ev
		}},
		{"early-completion", "completion", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseEnd && e.Phase == sim.PhaseCompute &&
					e.Progress < sys.BaselineTime/2
			})
			return append(ev[:i+1], sim.Event{
				Time: ev[i].Time, Kind: sim.EvComplete, Progress: ev[i].Progress,
			})
		}},
		{"rollback-to-uncommitted-state", "rollback", func(ev []sim.Event) []sim.Event {
			i := index(func(e sim.Event) bool {
				return e.Kind == sim.EvPhaseEnd && e.Phase == sim.PhaseRestart
			})
			j := i + 1 // compute start carrying the rolled-back progress
			if ev[j].Kind != sim.EvPhaseStart {
				t.Fatal("restart end not followed by a phase start")
			}
			ev[j].Progress += 0.125
			return ev
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev := tc.corrupt(append([]sim.Event(nil), events...))
			ck := replay(t, scn, ev)
			err := ck.Err()
			if err == nil {
				t.Fatalf("corruption %s not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.invariant) {
				t.Fatalf("corruption %s tripped %v, want invariant %q", tc.name, err, tc.invariant)
			}
		})
	}

	// The pristine stream must replay clean (guards against the cases
	// above passing for the wrong reason).
	if err := replay(t, scn, events).Err(); err != nil {
		t.Fatalf("uncorrupted stream flagged: %v", err)
	}
}

// TestCheckerFlagsForeignScenario: a checker built for one plan must
// reject the event stream of a different plan — the end-to-end form of
// the corruption tests above.
func TestCheckerFlagsForeignScenario(t *testing.T) {
	sys, err := system.ByName("D2")
	if err != nil {
		t.Fatal(err)
	}
	ran := sim.Scenario{System: sys, Plan: pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}}}
	declared := sim.Scenario{System: sys, Plan: pattern.Plan{Tau0: 4, Counts: []int{2}, Levels: []int{1, 2}}}
	ck, err := NewChecker(declared)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ran)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(ck)
	if _, err := eng.Run(rng.Campaign(5, "foreign").Trial(0)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Err(); err == nil {
		t.Fatal("checker accepted a trial executed under a different plan")
	}
}

// TestPoolAggregatesAcrossWorkers runs a parallel campaign under the
// pool and verifies per-worker checkers cover every trial.
func TestPoolAggregatesAcrossWorkers(t *testing.T) {
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	scn := sim.Scenario{System: sys, Plan: pattern.Plan{Tau0: 1.5, Counts: []int{3}, Levels: []int{1, 2}}}
	pool, err := NewPool(scn)
	if err != nil {
		t.Fatal(err)
	}
	camp := sim.Campaign{
		Scenario:        scn,
		Trials:          60,
		Workers:         4,
		Seed:            rng.Campaign(29, "pool"),
		ObserverFactory: pool.Observer,
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Err(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Trials(); got != camp.Trials {
		t.Fatalf("pool checked %d trials, want %d", got, camp.Trials)
	}
	if pool.Events() == 0 {
		t.Fatal("pool observed no events")
	}
}

func TestNewCheckerRejectsInvalidScenario(t *testing.T) {
	if _, err := NewChecker(sim.Scenario{}); err == nil {
		t.Fatal("nil-system scenario accepted")
	}
	if _, err := NewPool(sim.Scenario{}); err == nil {
		t.Fatal("pool accepted invalid scenario")
	}
}
