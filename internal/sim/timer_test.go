package sim

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/pattern"
	"repro/internal/system"
)

// dyadicSystem has checkpoint and restart costs that are exact binary
// fractions, so every event time below is exact and scripted arrivals
// can land on a phase end or a flush deadline bit for bit.
func dyadicSystem(levels int, tb float64) *system.System {
	costs := []float64{0.5, 4, 1.25, 8}
	sys := &system.System{Name: "dyadic", MTBF: 1e15, BaselineTime: tb}
	for i := 0; i < levels; i++ {
		sys.Levels = append(sys.Levels, system.Level{
			Checkpoint: costs[i], Restart: costs[i], SeverityProb: 1 / float64(levels),
		})
	}
	return sys
}

// TestTimerTieOrderGolden scripts arrivals that tie other pending events
// exactly. Ties pop in scheduling order, and a failure arrival is always
// armed before the phase or flush it ties, so the failure wins every
// tie:
//
//   - t=10.5: a severity-1 arrival on the end of the first level-1
//     checkpoint. The checkpoint fails, nothing is committed, and the
//     application restarts from scratch.
//   - t=35.5: a severity-2 arrival on the async top-level flush deadline.
//     The failure aborts the flush, so no top-level checkpoint exists and
//     the application restarts from scratch again.
//   - t=58.5: a severity-1 arrival on the end of a level-1 restart. The
//     restart fails and is retried.
//
// The bit patterns were captured from the binary-heap event queue the
// engine used before the timer table.
func TestTimerTieOrderGolden(t *testing.T) {
	sys := dyadicSystem(2, 60)
	ctl := &scriptedFailures{times: []float64{10.5, 35.5, 58, 58.5}, severities: []int{1, 2, 1, 1}}
	scn := Scenario{
		System:        sys,
		Plan:          pattern.Plan{Tau0: 10, Counts: []int{1}, Levels: []int{1, 2}},
		AsyncTopFlush: true,
		FailureLaws:   ctl.laws(sys),
	}
	res, err := RunTrial(scn, seed("ties").Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.ScratchRestarts != 2 || res.Failures[0] != 3 || res.Failures[1] != 1 {
		t.Fatalf("tie order changed: %+v", res)
	}
	checkBits(t, "WallTime", res.WallTime, 0x4059200000000000)
	checkBits(t, "Efficiency", res.Efficiency, 0x3fe31abf0b7672a0)
	checkBits(t, "Progress", res.Progress, 0x404e000000000000)
	b := res.Breakdown
	checkBits(t, "UsefulCompute", b.UsefulCompute, 0x404e000000000000)
	checkBits(t, "LostCompute", b.LostCompute, 0x4041c00000000000)
	checkBits(t, "CheckpointOK", b.CheckpointOK, 0x400c000000000000)
	checkBits(t, "CheckpointFail", b.CheckpointFail, 0x3fe0000000000000)
	checkBits(t, "RestartOK", b.RestartOK, 0x3fe0000000000000)
	checkBits(t, "RestartFail", b.RestartFail, 0x3fe0000000000000)
}

// levelChecker asserts that every checkpoint the engine starts is the
// one pattern.Plan.LevelAfterInterval prescribes. With τ0 = 1 and dyadic
// costs, progress counts whole intervals exactly, so the pattern position
// of a checkpoint is recoverable from its progress alone — across
// rollbacks too, since a store's position is the interval count at
// commit time.
type levelChecker struct {
	t    *testing.T
	name string
	plan pattern.Plan
	base float64 // progress at which the current plan's pattern started

	checked     int
	ckptEnds    []float64
	restarted   bool // last event closed a restart
	midRollback int  // rollbacks that resumed mid-period
}

func (c *levelChecker) Observe(e Event) {
	switch {
	case e.Kind == EvPhaseEnd && e.Phase == PhaseRestart:
		c.restarted = true
	case e.Kind == EvPhaseStart && e.Phase == PhaseCompute && c.restarted:
		c.restarted = false
		if int((e.Progress-c.base)/c.plan.Tau0)%c.plan.PeriodIntervals() != 0 {
			c.midRollback++
		}
	case e.Kind == EvPhaseEnd && e.Phase == PhaseCheckpoint:
		c.ckptEnds = append(c.ckptEnds, e.Time)
	case e.Kind == EvPhaseStart && e.Phase == PhaseCheckpoint:
		k := (int((e.Progress-c.base)/c.plan.Tau0) - 1) % c.plan.PeriodIntervals()
		want := c.plan.Levels[c.plan.LevelAfterInterval(k)]
		if e.Level != want {
			c.t.Fatalf("%s: checkpoint at progress %v (interval %d of %v) is level %d, want %d",
				c.name, e.Progress, k, c.plan, e.Level, want)
		}
		c.checked++
	}
}

// odometerSwitch switches the engine to plan at the after-th Replan and
// restarts the checker's pattern there.
type odometerSwitch struct {
	after, consults int
	plan            pattern.Plan
	chk             *levelChecker
	at              float64 // simulated time of the switch
}

func (c *odometerSwitch) OnFailure(float64, int) {}
func (c *odometerSwitch) Replan(now, progress float64) (pattern.Plan, bool) {
	c.consults++
	if c.consults != c.after {
		return pattern.Plan{}, false
	}
	c.chk.plan, c.chk.base, c.at = c.plan, progress, now
	return c.plan, true
}

// randomPlan draws a valid plan over a 4-level system: 1–4 used levels,
// counts in [0, 3] (zeros included), τ0 = 1.
func randomPlan(r *rand.Rand) pattern.Plan {
	var levels []int
	for len(levels) == 0 {
		for lvl := 1; lvl <= 4; lvl++ {
			if r.IntN(2) == 0 {
				levels = append(levels, lvl)
			}
		}
	}
	p := pattern.Plan{Tau0: 1, Levels: levels}
	for i := 1; i < len(levels); i++ {
		p.Counts = append(p.Counts, r.IntN(4))
	}
	return p
}

// runChecked runs one trial of scn under chk and an optional controller.
func runChecked(t *testing.T, scn Scenario, chk *levelChecker, ctl PlanController) TrialResult {
	t.Helper()
	eng, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(chk)
	if ctl != nil {
		eng.Control(func() PlanController { return ctl })
	}
	res, err := eng.Run(seed("odometer").Trial(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%s: trial did not complete: %+v", chk.name, res)
	}
	return res
}

// TestOdometerMatchesLevelAfterInterval checks the engine's checkpoint
// level sequence against pattern.Plan.LevelAfterInterval for random plans
// over two full periods, after rollbacks to mid-period checkpoints, and
// after a PlanController switch.
func TestOdometerMatchesLevelAfterInterval(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 0))
	midRollbacks := 0
	for iter := 0; iter < 200; iter++ {
		plan := randomPlan(r)
		n := plan.PeriodIntervals()

		// Two full periods, failure-free: 2n checkpoints, then the last
		// interval completes the application.
		sys := dyadicSystem(4, float64(2*n+1))
		free := &levelChecker{t: t, name: "periods", plan: plan}
		freeRes := runChecked(t, Scenario{System: sys, Plan: plan}, free, nil)
		if free.checked != 2*n {
			t.Fatalf("%v: %d checkpoints, want %d", plan, free.checked, 2*n)
		}

		// Rollbacks: 1–3 arrivals of random severity, placed off the
		// 1/16-minute grid so none ties a phase end.
		script := &scriptedFailures{}
		for i := 0; i <= r.IntN(3); i++ {
			script.times = append(script.times,
				float64(int(r.Float64()*freeRes.WallTime*16))/16+1.0/32)
		}
		sort.Float64s(script.times)
		for range script.times {
			script.severities = append(script.severities, 1+r.IntN(4))
		}
		rb := &levelChecker{t: t, name: "rollback", plan: plan}
		runChecked(t, Scenario{System: sys, Plan: plan, FailureLaws: script.laws(sys)}, rb, nil)
		midRollbacks += rb.midRollback

		// Switch after a random number of commits to a second random
		// plan, which then runs two full periods of its own; a repeat
		// run adds a severity-1 arrival mid-way through the compute
		// interval after the first post-switch checkpoint, rolling back
		// to that checkpoint.
		next := randomPlan(r)
		after := 1 + r.IntN(n)
		sys = dyadicSystem(4, float64(after+2*next.PeriodIntervals()+1))
		sw := &levelChecker{t: t, name: "switch", plan: plan}
		ctl := &odometerSwitch{after: after, plan: next, chk: sw}
		runChecked(t, Scenario{System: sys, Plan: plan}, sw, ctl)
		if sw.plan.Tau0 != next.Tau0 || sw.checked != after+2*next.PeriodIntervals() {
			t.Fatalf("%v -> %v after %d: %d checkpoints checked", plan, next, after, sw.checked)
		}
		fail := -1.0
		for _, end := range sw.ckptEnds {
			if end > ctl.at {
				fail = end + 0.5
				break
			}
		}
		swrb := &levelChecker{t: t, name: "switch+rollback", plan: plan}
		script = &scriptedFailures{times: []float64{fail}, severities: []int{1}}
		runChecked(t, Scenario{System: sys, Plan: plan, FailureLaws: script.laws(sys)}, swrb,
			&odometerSwitch{after: after, plan: next, chk: swrb})
		midRollbacks += swrb.midRollback
	}
	if midRollbacks == 0 {
		t.Fatal("no rollback resumed mid-period; the test exercises nothing")
	}
	t.Logf("%d mid-period rollbacks checked", midRollbacks)
}
