package sim

import (
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"

	"repro/internal/markov"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/system"
)

func twoLevel(mtbf, tb float64) *system.System {
	return &system.System{
		Name:         "sim2",
		MTBF:         mtbf,
		BaselineTime: tb,
		Levels: []system.Level{
			{Checkpoint: 0.333, Restart: 0.333, SeverityProb: 0.833},
			{Checkpoint: 0.833, Restart: 0.833, SeverityProb: 0.167},
		},
	}
}

func planBoth(tau0 float64, n1 int) pattern.Plan {
	return pattern.Plan{Tau0: tau0, Counts: []int{n1}, Levels: []int{1, 2}}
}

func seed(name string) rng.Seed {
	return rng.Campaign(1234, "simtest").Scenario(name)
}

// runOnce runs one trial of scn, drawn from s, on a fresh engine.
func runOnce(t *testing.T, scn Scenario, s rng.Seed) TrialResult {
	t.Helper()
	eng, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFailureFreeRun(t *testing.T) {
	sys := twoLevel(1e15, 100)
	cfg := Scenario{System: sys, Plan: planBoth(10, 1)}
	res := runOnce(t, cfg, seed("free").Trial(0))
	if !res.Completed {
		t.Fatal("failure-free run did not complete")
	}
	// 10 intervals of 10; pattern (ck1, ck2) repeating; the 10th
	// interval completes the app before its checkpoint. 9 checkpoints:
	// positions 1..9 → 5×ck1 + 4×ck2.
	wantCkpt := 5*0.333 + 4*0.833
	if math.Abs(res.Breakdown.CheckpointOK-wantCkpt) > 1e-9 {
		t.Fatalf("checkpoint time = %v, want %v", res.Breakdown.CheckpointOK, wantCkpt)
	}
	if math.Abs(res.WallTime-(100+wantCkpt)) > 1e-9 {
		t.Fatalf("wall = %v", res.WallTime)
	}
	if res.Breakdown.LostCompute != 0 || res.Breakdown.RestartOK != 0 {
		t.Fatalf("unexpected overhead: %+v", res.Breakdown)
	}
	if res.TotalFailures() != 0 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestBreakdownSumsToWallTime(t *testing.T) {
	sys := twoLevel(10, 300)
	cfg := Scenario{System: sys, Plan: planBoth(2, 3)}
	s := seed("sum")
	for i := 0; i < 50; i++ {
		res := runOnce(t, cfg, s.Trial(i))
		if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-6 {
			t.Fatalf("trial %d: breakdown %v != wall %v", i, res.Breakdown.Total(), res.WallTime)
		}
		if res.Completed && math.Abs(res.Breakdown.UsefulCompute-300) > 1e-6 {
			t.Fatalf("trial %d: useful compute %v != T_B", i, res.Breakdown.UsefulCompute)
		}
		if res.Efficiency <= 0 || res.Efficiency > 1 {
			t.Fatalf("trial %d: efficiency %v", i, res.Efficiency)
		}
	}
}

func TestAgreementWithExactMarkovChain(t *testing.T) {
	// Steady-state cross-validation: the simulator's mean wall time
	// over a long application must match the exact Markov period chain
	// under identical (Retry) semantics.
	sys := twoLevel(24, 1440)
	plan := planBoth(3, 2)
	chain, err := buildRetryChain(sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	periodTime, err := chain.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	wantWall := periodTime * sys.BaselineTime / chain.Work()

	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: plan},
		Trials:   600,
		Seed:     seed("markov-x"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Trials {
		t.Fatalf("only %d/%d trials completed", res.Completed, res.Trials)
	}
	rel := math.Abs(res.WallTime.Mean-wantWall) / wantWall
	if rel > 0.03 {
		t.Fatalf("sim mean wall %v vs markov %v (rel %.3f)", res.WallTime.Mean, wantWall, rel)
	}
}

// buildRetryChain mirrors moody.BuildChain but with Retry semantics, to
// match the simulator's default policy.
func buildRetryChain(sys *system.System, plan pattern.Plan) (*markov.Chain, error) {
	c := &markov.Chain{Policy: markov.Retry}
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		c.Rates = append(c.Rates, sys.LevelRate(sev))
		c.RestartTime = append(c.RestartTime, sys.Levels[sev-1].Restart)
	}
	n := plan.PeriodIntervals()
	for k := 0; k < n; k++ {
		c.Segments = append(c.Segments, markov.Segment{Kind: markov.Compute, Duration: plan.Tau0})
		lvl := plan.Levels[plan.LevelAfterInterval(k)]
		c.Segments = append(c.Segments, markov.Segment{
			Kind: markov.Checkpoint, Duration: sys.Levels[lvl-1].Checkpoint, Level: lvl,
		})
	}
	return c, nil
}

func TestFailureCountsMatchPoissonRates(t *testing.T) {
	// Mean failures per severity must equal rate × mean wall time.
	sys := twoLevel(12, 720)
	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(2, 3)},
		Trials:   400,
		Seed:     seed("poisson"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for sev := 1; sev <= 2; sev++ {
		want := sys.LevelRate(sev) * res.WallTime.Mean
		got := res.MeanFailures[sev-1]
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("severity %d: mean failures %v, want ~%v", sev, got, want)
		}
	}
}

func TestSeverityTwoRollsPastLevelOne(t *testing.T) {
	// With identical total rates, severity-2-only failures must hurt
	// more than severity-1-only failures (they roll back to the rarer
	// level-2 checkpoints and pay the bigger restart).
	mk := func(p1 float64) *system.System {
		s := twoLevel(10, 720)
		s.Levels[0].SeverityProb = p1
		s.Levels[1].SeverityProb = 1 - p1
		return s
	}
	plan := planBoth(2, 5)
	run := func(sys *system.System, name string) float64 {
		camp := Campaign{Scenario: Scenario{System: sys, Plan: plan}, Trials: 150, Seed: seed(name)}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency.Mean
	}
	effSev1 := run(mk(0.999999), "sev1")
	effSev2 := run(mk(0.000001), "sev2")
	if !(effSev2 < effSev1) {
		t.Fatalf("severity-2 failures should cost more: %v vs %v", effSev2, effSev1)
	}
}

func TestScratchRestartWhenTopLevelSkipped(t *testing.T) {
	// Plan uses only level 1; severity-2 failures have no checkpoint to
	// read and must restart the application from zero progress.
	sys := twoLevel(30, 60)
	plan := pattern.Plan{Tau0: 5, Levels: []int{1}}
	camp := Campaign{Scenario: Scenario{System: sys, Plan: plan}, Trials: 300, Seed: seed("scratch")}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanScratchRestarts <= 0 {
		t.Fatal("expected scratch restarts")
	}
	if res.Completed == 0 {
		t.Fatal("no trial completed")
	}
	// No level-2 restarts can ever be charged.
	if res.MeanBreakdown.RestartOK > 0 {
		// level-1 restarts exist; ensure they are cheap ones only by
		// bounding each restart at R_1... indirect: mean restart time
		// per failure must be <= R_1 plus slack.
		perFailure := res.MeanBreakdown.RestartOK / math.Max(res.MeanFailures[0], 1e-9)
		if perFailure > sys.Levels[0].Restart*1.5 {
			t.Fatalf("restart cost per severity-1 failure %v too high", perFailure)
		}
	}
}

func TestHopelessSystemHitsCap(t *testing.T) {
	// Checkpoints cost many MTBFs: the run cannot finish and must stop
	// at the wall cap with tiny efficiency.
	sys := &system.System{
		Name: "hopeless", MTBF: 0.5, BaselineTime: 50,
		Levels: []system.Level{
			{Checkpoint: 5, Restart: 5, SeverityProb: 0.5},
			{Checkpoint: 50, Restart: 50, SeverityProb: 0.5},
		},
	}
	cfg := Scenario{System: sys, Plan: planBoth(1, 1), MaxWallFactor: 20}
	res := runOnce(t, cfg, seed("cap").Trial(0))
	if res.Completed {
		t.Fatal("hopeless run completed")
	}
	if math.Abs(res.WallTime-20*50) > 1e-6 {
		t.Fatalf("wall = %v, want cap 1000", res.WallTime)
	}
	if res.Efficiency > 0.05 {
		t.Fatalf("efficiency = %v", res.Efficiency)
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-6 {
		t.Fatalf("breakdown %v != wall %v", res.Breakdown.Total(), res.WallTime)
	}
}

func TestEscalatePolicyCostsAtLeastRetry(t *testing.T) {
	sys := twoLevel(4, 360)
	plan := planBoth(1, 3)
	run := func(p RestartPolicy, name string) float64 {
		camp := Campaign{Scenario: Scenario{System: sys, Plan: plan, Policy: p}, Trials: 200, Seed: seed(name)}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency.Mean
	}
	retry := run(RetryPolicy, "retry-pol")
	esc := run(EscalatePolicy, "esc-pol")
	if esc > retry*1.02 {
		t.Fatalf("escalation should not beat retry: %v vs %v", esc, retry)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(15, 200), Plan: planBoth(2, 2)},
		Trials:   50,
		Seed:     seed("det"),
	}
	camp.Workers = 1
	a, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	camp.Workers = 8
	b, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Efficiency.Mean != b.Efficiency.Mean || a.WallTime.Std != b.WallTime.Std {
		t.Fatalf("worker count changed results: %+v vs %+v", a.Efficiency, b.Efficiency)
	}
	for i := range a.Efficiencies {
		if a.Efficiencies[i] != b.Efficiencies[i] {
			t.Fatalf("trial %d efficiency differs", i)
		}
	}
}

func TestCampaignSeedsDiffer(t *testing.T) {
	cfg := Scenario{System: twoLevel(15, 200), Plan: planBoth(2, 2)}
	a, err := Campaign{Scenario: cfg, Trials: 30, Seed: seed("s1")}.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign{Scenario: cfg, Trials: 30, Seed: seed("s2")}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Efficiency.Mean == b.Efficiency.Mean {
		t.Fatal("different seeds produced identical campaigns")
	}
	// But statistically indistinguishable.
	sig, err := stats.SignificantlyGreater(a.Efficiency, b.Efficiency, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if sig {
		t.Fatalf("same scenario flagged significantly different: %+v vs %+v", a.Efficiency, b.Efficiency)
	}
}

func TestBreakdownShareSumsToOne(t *testing.T) {
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(8, 300), Plan: planBoth(1.5, 4)},
		Trials:   100,
		Seed:     seed("share"),
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BreakdownShare.Total(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("breakdown share total = %v", got)
	}
	if res.BreakdownShare.UsefulCompute <= 0 || res.BreakdownShare.UsefulCompute >= 1 {
		t.Fatalf("useful share = %v", res.BreakdownShare.UsefulCompute)
	}
}

type collectObserver struct{ events []Event }

func (c *collectObserver) Observe(e Event) { c.events = append(c.events, e) }

func TestObserverStream(t *testing.T) {
	obs := &collectObserver{}
	eng, err := NewEngine(Scenario{System: twoLevel(20, 60), Plan: planBoth(5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(obs)
	res, err := eng.Run(seed("obs").Trial(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.events) == 0 {
		t.Fatal("no events observed")
	}
	last := obs.events[len(obs.events)-1]
	if res.Completed && last.Kind != EvComplete {
		t.Fatalf("last event = %v", last.Kind)
	}
	prev := -1.0
	var failures int
	for _, e := range obs.events {
		if e.Time < prev-1e-12 {
			t.Fatalf("event times regress: %v after %v", e.Time, prev)
		}
		prev = e.Time
		if e.Kind == EvFailure {
			failures++
		}
	}
	if failures != res.TotalFailures() {
		t.Fatalf("observer saw %d failures, result has %d", failures, res.TotalFailures())
	}
}

func TestScenarioValidation(t *testing.T) {
	good := Scenario{System: twoLevel(10, 100), Plan: planBoth(1, 1)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.System = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil system accepted")
	}
	bad = good
	bad.Plan.Tau0 = -1
	if err := bad.Validate(); err == nil {
		t.Error("bad plan accepted")
	}
	bad = good
	bad.MaxWallFactor = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative cap accepted")
	}
	if _, err := (Campaign{Scenario: good, Trials: 0}).Run(); err == nil {
		t.Error("zero trials accepted")
	}
}

// TestScenarioRejectsUnboundedArrivals pins the bound on a trial's
// failure arrivals: cap × Σ 1/mean must not exceed 10⁷.
func TestScenarioRejectsUnboundedArrivals(t *testing.T) {
	d4, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	largest := Scenario{System: d4, Plan: planBoth(1.3, 3)}
	if n := largest.expectedArrivals(); math.Abs(n-96000) > 1e-6 {
		t.Errorf("D4 at the default cap expects %v arrivals, want 96000", n)
	}
	if err := largest.Validate(); err != nil {
		t.Fatal(err)
	}

	// mlckpt -mtbf 1e-6 -probs 0.8,0.2 -times 0.5,2: 5.76e11 arrivals.
	storm := Scenario{System: twoLevel(1e-6, 1440), Plan: planBoth(1, 1)}
	err = storm.Validate()
	if err == nil || !strings.Contains(err.Error(), "5.76e+11") || !strings.Contains(err.Error(), "1e+07") {
		t.Fatalf("storm scenario: got %v, want an error naming 5.76e+11 and 1e+07 arrivals", err)
	}
	if _, err := NewEngine(storm); err == nil {
		t.Error("NewEngine built a storm scenario")
	}
	if _, err := (Campaign{Scenario: storm, Trials: 1, Seed: seed("storm")}).Run(); err == nil {
		t.Error("a campaign ran a storm scenario")
	}

	// The limit itself: 400 × 1440 / MTBF arrivals.
	at := Scenario{System: twoLevel(400*1440/1e7, 1440), Plan: planBoth(1, 1)}
	if err := at.Validate(); err != nil {
		t.Errorf("10⁷ expected arrivals rejected: %v", err)
	}
	at.MaxWallFactor = 401
	if err := at.Validate(); err == nil {
		t.Error("a wall factor of 401 at the limit's MTBF accepted")
	}

	// Override laws count by their means; a law without a positive mean
	// (a scripted test law) adds nothing.
	fast, _ := dist.NewExponential(1e3)
	laws := Scenario{System: twoLevel(10, 1440), Plan: planBoth(1, 1), FailureLaws: []dist.Sampler{nil, fast}}
	if err := laws.Validate(); err == nil {
		t.Error("a severity-2 law at rate 1e3 accepted")
	}
	laws.FailureLaws[1] = &fixedDraws{draws: []float64{1, 2}}
	if err := laws.Validate(); err != nil {
		t.Errorf("a scripted law rejected: %v", err)
	}
}

func TestCampaignWorkersValidation(t *testing.T) {
	good := Scenario{System: twoLevel(10, 100), Plan: planBoth(1, 1)}
	if _, err := (Campaign{Scenario: good, Trials: 2, Workers: -1, Seed: seed("w")}).Run(); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := (Campaign{Scenario: good, Trials: 2, Workers: 1 << 20, Seed: seed("w")}).Run(); err == nil {
		t.Error("absurd Workers accepted")
	}
	// Workers above Trials is merely clamped, not an error.
	if _, err := (Campaign{Scenario: good, Trials: 2, Workers: 16, Seed: seed("w")}).Run(); err != nil {
		t.Errorf("Workers > Trials rejected: %v", err)
	}
}

func TestStringers(t *testing.T) {
	if EvFailure.String() != "failure" || PhaseRestart.String() != "restart" {
		t.Fatal("stringers wrong")
	}
	if EventKind(99).String() == "" || Phase(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestAsyncFlushFailureFreeArithmetic(t *testing.T) {
	// Failure-free async run blocks only for the capture cost at top
	// checkpoints: wall = T_B + (#L1 ckpts + #top captures)·δ1.
	sys := twoLevel(1e15, 100)
	cfg := Scenario{System: sys, Plan: planBoth(10, 1), AsyncTopFlush: true}
	res := runOnce(t, cfg, seed("async-free").Trial(0))
	if !res.Completed {
		t.Fatal("did not complete")
	}
	// 9 checkpoints (5×L1 + 4×top), each top blocked at δ1 = 0.333.
	wantCkpt := 9 * 0.333
	if math.Abs(res.Breakdown.CheckpointOK-wantCkpt) > 1e-9 {
		t.Fatalf("checkpoint time = %v, want %v", res.Breakdown.CheckpointOK, wantCkpt)
	}
	if math.Abs(res.WallTime-(100+wantCkpt)) > 1e-9 {
		t.Fatalf("wall = %v", res.WallTime)
	}
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-9 {
		t.Fatal("breakdown does not sum to wall")
	}
}

func TestAsyncFlushCommitsTopLevel(t *testing.T) {
	// After a flush completes, a severity-2 failure must restart from
	// the flushed top-level checkpoint, not from scratch.
	sys := twoLevel(1e15, 1000) // failures injected manually below
	plan := planBoth(10, 0)     // top checkpoint after every interval
	ctl := &scriptedFailures{times: []float64{200}, severities: []int{2}}
	cfg := Scenario{
		System: sys, Plan: plan, AsyncTopFlush: true,
		FailureLaws: ctl.laws(sys),
	}
	res := runOnce(t, cfg, seed("async-commit").Trial(0))
	if res.ScratchRestarts != 0 {
		t.Fatalf("scratch restart despite flushed top checkpoint: %+v", res)
	}
	if res.Failures[1] != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
}

func TestAsyncFlushAbortedByQuickFailure(t *testing.T) {
	// A severity-2 failure arriving during the very first flush (top
	// write takes 50 min here) must find NO top-level checkpoint and
	// restart from scratch.
	sys := twoLevel(1e15, 1000)
	sys.Levels[1].Checkpoint = 50
	sys.Levels[1].Restart = 50
	plan := planBoth(10, 0)
	ctl := &scriptedFailures{times: []float64{10.5}, severities: []int{2}}
	cfg := Scenario{
		System: sys, Plan: plan, AsyncTopFlush: true,
		FailureLaws: ctl.laws(sys),
	}
	res := runOnce(t, cfg, seed("async-abort").Trial(0))
	if res.ScratchRestarts != 1 {
		t.Fatalf("expected scratch restart (flush aborted): %+v", res)
	}
}

func TestAsyncBeatsSyncOnPFSHeavySystem(t *testing.T) {
	sys := twoLevel(15, 720)
	sys.Levels[1].Checkpoint = 10
	sys.Levels[1].Restart = 10
	plan := planBoth(3, 3)
	run := func(async bool, name string) float64 {
		camp := Campaign{
			Scenario: Scenario{System: sys, Plan: plan, AsyncTopFlush: async},
			Trials:   150, Seed: seed(name),
		}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency.Mean
	}
	sync := run(false, "sync-pfs")
	async := run(true, "async-pfs")
	if !(async > sync+0.02) {
		t.Fatalf("async %v should clearly beat sync %v when PFS writes are long", async, sync)
	}
}

func TestAsyncIgnoredForSingleLevelPlan(t *testing.T) {
	sys := twoLevel(30, 120)
	plan := pattern.Plan{Tau0: 10, Levels: []int{2}}
	cfg := Scenario{System: sys, Plan: plan, AsyncTopFlush: true}
	res := runOnce(t, cfg, seed("async-single").Trial(0))
	if math.Abs(res.Breakdown.Total()-res.WallTime) > 1e-9 {
		t.Fatal("accounting broken for single-level async")
	}
}

// scriptedFailures injects failures at fixed absolute times: severity
// s-specific laws emit the scheduled arrival (as an inter-arrival from
// t=0) and then +Inf.
type scriptedFailures struct {
	times      []float64
	severities []int
}

func (s *scriptedFailures) laws(sys *system.System) []dist.Sampler {
	laws := make([]dist.Sampler, sys.NumLevels())
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		var draws []float64
		prev := 0.0
		for i, tgt := range s.times {
			if s.severities[i] == sev {
				draws = append(draws, tgt-prev)
				prev = tgt
			}
		}
		laws[sev-1] = &fixedDraws{draws: draws}
	}
	return laws
}

type fixedDraws struct {
	draws []float64
	next  int
}

func (f *fixedDraws) Sample(*rand.Rand) float64 {
	if f.next >= len(f.draws) {
		return math.Inf(1)
	}
	v := f.draws[f.next]
	f.next++
	return v
}

func (f *fixedDraws) Mean() float64 { return 0 }

// countingObserver tallies events; one per worker via ObserverFactory.
type countingObserver struct {
	worker int
	events int
	trials int
}

func (o *countingObserver) Observe(e Event) {
	o.events++
	if e.Kind == EvComplete || e.Kind == EvCapped {
		o.trials++
	}
}

func TestCampaignObserverFactoryAndTrialDone(t *testing.T) {
	sys := twoLevel(10, 100)
	var mu sync.Mutex
	var shards []*countingObserver
	var doneTrials int
	var wallSum float64
	camp := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(2, 3)},
		Trials:   40,
		Seed:     seed("hooks"),
		ObserverFactory: func(worker int) Observer {
			o := &countingObserver{worker: worker}
			mu.Lock()
			shards = append(shards, o)
			mu.Unlock()
			return o
		},
		TrialDone: func(r TrialResult) {
			mu.Lock()
			doneTrials++
			wallSum += r.WallTime
			mu.Unlock()
		},
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if doneTrials != 40 {
		t.Errorf("TrialDone fired %d times, want 40", doneTrials)
	}
	if math.Abs(wallSum-res.WallTime.Mean*40) > 1e-6*wallSum {
		t.Errorf("TrialDone wall sum %v vs campaign mean*n %v", wallSum, res.WallTime.Mean*40)
	}
	total := 0
	for _, s := range shards {
		total += s.trials
		if s.events == 0 {
			t.Errorf("worker %d shard observed no events", s.worker)
		}
	}
	if total != 40 {
		t.Errorf("shards observed %d trial ends, want 40", total)
	}
	if len(shards) > runtime.GOMAXPROCS(0) {
		t.Errorf("%d shards for %d max workers", len(shards), runtime.GOMAXPROCS(0))
	}
}

func TestCampaignFactoryDeterminism(t *testing.T) {
	// Per-trial seeding means results must not depend on whether an
	// observer factory is installed or how many workers run.
	sys := twoLevel(10, 100)
	base := Campaign{
		Scenario: Scenario{System: sys, Plan: planBoth(2, 3)},
		Trials:   30,
		Seed:     seed("det"),
	}
	plain, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.Workers = 2
	hooked.ObserverFactory = func(int) Observer { return &countingObserver{} }
	hooked.TrialDone = func(TrialResult) {}
	withObs, err := hooked.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Efficiencies {
		if plain.Efficiencies[i] != withObs.Efficiencies[i] {
			t.Fatalf("trial %d efficiency changed with hooks: %v vs %v",
				i, plain.Efficiencies[i], withObs.Efficiencies[i])
		}
	}
}
