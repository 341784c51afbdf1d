package sim

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/system"
)

// crnArms builds two deliberately similar plans on D4 (the kind of pair
// the paper's Figure 5 comparisons certify) plus one dissimilar plan.
func crnArms(t *testing.T) (*system.System, []Scenario) {
	t.Helper()
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tau0 float64, counts []int, levels []int) Scenario {
		return Scenario{
			System:        sys,
			Plan:          pattern.Plan{Tau0: tau0, Counts: counts, Levels: levels},
			MaxWallFactor: 150,
		}
	}
	return sys, []Scenario{
		mk(1.47, []int{2}, []int{1, 2}),
		mk(1.46, []int{2}, []int{1, 2}),
		mk(2.9, []int{1}, []int{1, 2}),
	}
}

// campaigns builds one arm Campaign per scenario, all on the shared
// trial count, seed and worker count.
func campaigns(scenarios []Scenario, trials int, seed rng.Seed, workers int) []Campaign {
	arms := make([]Campaign, len(scenarios))
	for a, sc := range scenarios {
		arms[a] = Campaign{Scenario: sc, Trials: trials, Seed: seed, Workers: workers}
	}
	return arms
}

// The CRN orchestration must be bitwise-invisible per arm: every arm's
// marginal CampaignResult must equal a standalone Campaign run with the
// same (shared) seed — CRN changes which seed arms share, never what a
// single arm computes.
func TestPairedCampaignMarginalsBitwiseIdentical(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(11, "crn").Scenario("D4")
	pc := PairedCampaign{Arms: campaigns(arms, 120, seed, 4)}
	res, err := pc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun != 120 || res.TrialsSaved() != 0 {
		t.Fatalf("no stopping rule: ran %d, saved %d; want 120, 0", res.TrialsRun, res.TrialsSaved())
	}
	for a, arm := range arms {
		solo, err := Campaign{Scenario: arm, Trials: 120, Seed: seed, Workers: 2}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Arms[a], solo) {
			t.Errorf("arm %d marginal result differs from standalone campaign", a)
		}
		for i := range solo.Efficiencies {
			if math.Float64bits(res.Arms[a].Efficiencies[i]) != math.Float64bits(solo.Efficiencies[i]) {
				t.Fatalf("arm %d trial %d efficiency bits differ", a, i)
			}
		}
	}
}

// failureLog records the time and severity of every failure arrival of
// a trial.
type failureLog []failureAt

type failureAt struct {
	t   uint64 // bits of the arrival time
	sev int
}

func (l *failureLog) Observe(e Event) {
	if e.Kind == EvFailure {
		*l = append(*l, failureAt{math.Float64bits(e.Time), e.Level})
	}
}

// before returns the arrivals strictly earlier than t.
func (l failureLog) before(t float64) failureLog {
	n := 0
	for n < len(l) && math.Float64frombits(l[n].t) < t {
		n++
	}
	return l[:n]
}

// TestTrialSeedFixesFailureArrivals pins the premise of PairedCampaign:
// a trial seed fixes the failure history, whatever the plan, restart
// policy or flush mode. The engine draws uniforms only for arrivals,
// each when the previous arrival of its severity fires, so the draws
// follow the arrival times and not the plan. Each pair of scenarios
// below differs in all three; trial i of both runs on the same seed, and
// their arrivals must agree bit for bit up to the shorter trial's wall
// time. A failure on the completion instant would preempt completion,
// so every arrival of the shorter trial lies strictly before its end.
func TestTrialSeedFixesFailureArrivals(t *testing.T) {
	rows := map[string]Scenario{}
	for _, row := range trialPinScenarios(t) {
		rows[row.name] = row.scn
	}
	withLaws := func(name, laws string) Scenario {
		scn := rows[name]
		scn.FailureLaws = rows[laws].FailureLaws
		return scn
	}
	pairs := []struct {
		name string
		a, b Scenario
	}{
		{"D4", rows["D4/one/retry/sync"], rows["D4/multi/escalate/async"]},
		{"B", rows["B/one/retry/sync"], rows["B/multi/escalate/async"]},
		{"D4/weibull", rows["D4/multi/retry/async/weibull"], withLaws("D4/one/escalate/sync", "D4/multi/retry/async/weibull")},
		{"D4/mixed", rows["D4/multi/retry/async/mixed"], withLaws("D4/one/escalate/sync", "D4/multi/retry/async/mixed")},
	}
	compared := 0
	for _, p := range pairs {
		if p.a.System == nil || p.b.System == nil {
			t.Fatalf("%s: no such pin scenario", p.name)
		}
		var logs [2]failureLog
		var engs [2]*Engine
		for k, scn := range []Scenario{p.a, p.b} {
			eng, err := NewEngine(scn)
			if err != nil {
				t.Fatal(err)
			}
			eng.Observe(&logs[k])
			engs[k] = eng
		}
		s := rng.Campaign(1, "crn-premise").Scenario(p.name)
		for i := 0; i < 50; i++ {
			var res [2]TrialResult
			for k, eng := range engs {
				logs[k] = logs[k][:0]
				r, err := eng.Run(s.Trial(i))
				if err != nil {
					t.Fatal(err)
				}
				res[k] = r
			}
			short := 0
			if res[1].WallTime < res[0].WallTime {
				short = 1
			}
			w := res[short].WallTime
			if n := len(logs[short].before(w)); n != len(logs[short]) {
				t.Fatalf("%s trial %d: %d of %d arrivals before the wall time %v", p.name, i, n, len(logs[short]), w)
			}
			a, b := logs[0].before(w), logs[1].before(w)
			if !slices.Equal(a, b) {
				t.Fatalf("%s trial %d: the arrivals before %v differ: %d against %d", p.name, i, w, len(a), len(b))
			}
			compared += len(a)
		}
	}
	if compared == 0 {
		t.Fatal("no arrivals compared")
	}
	t.Logf("%d arrivals agree", compared)
}

// Sequential batching must not change any trial: a run whose target is
// unreachably tight (forcing it through every batch) must equal the
// single-pass run bit for bit. On blocks of 7 trials the second batch of
// 64 starts off the block grid, so every worker count below runs clipped
// blocks.
func TestPairedCampaignBatchingInvariant(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(12, "crn").Scenario("batch")
	blocksOf7 := func(workers int) []Campaign {
		c := campaigns(arms, 90, seed, workers)
		for a := range c {
			c[a].Block = 7
		}
		return c
	}
	onePass, err := PairedCampaign{Arms: blocksOf7(0)}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		batched, err := PairedCampaign{
			Arms:     blocksOf7(workers),
			TargetCI: 1e-15,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if batched.TrialsRun != 90 {
			t.Fatalf("workers=%d: unreachable target stopped early at %d trials", workers, batched.TrialsRun)
		}
		if !reflect.DeepEqual(onePass.Arms, batched.Arms) {
			t.Errorf("workers=%d: batched arms differ from single-pass arms", workers)
		}
		if !reflect.DeepEqual(onePass.Comparisons, batched.Comparisons) {
			t.Errorf("workers=%d: batched comparisons differ from single-pass comparisons", workers)
		}
	}
}

// The stopping decision depends only on accumulated results, so worker
// count must not perturb it (or anything else).
func TestPairedCampaignWorkerDeterminism(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(13, "crn").Scenario("workers")
	var prev *PairedResult
	for _, workers := range []int{1, 3, 8} {
		res, err := PairedCampaign{
			Arms:            campaigns(arms, 300, seed, workers),
			TargetCI:        0.002,
			ControlVariates: true,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(*prev, res) {
			t.Fatalf("workers=%d produced a different PairedResult", workers)
		}
		prev = &res
	}
}

// With a reachable target the stopping rule must save trials and still
// deliver the promised interval width.
func TestPairedCampaignSequentialStops(t *testing.T) {
	_, arms := crnArms(t)
	pc := PairedCampaign{
		// The similar pair: tight paired CIs come cheap.
		Arms: campaigns(arms[:2], 2000, rng.Campaign(14, "crn").Scenario("stop"), 0),
		// Probe runs put the 2000-trial paired width near 1e-4; a 10x
		// looser target should stop far earlier.
		TargetCI: 1e-3,
	}
	res, err := pc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun >= res.Budget {
		t.Fatalf("stopping rule never fired: ran all %d trials", res.TrialsRun)
	}
	if res.TrialsSaved() <= 0 {
		t.Fatalf("TrialsSaved = %d, want positive", res.TrialsSaved())
	}
	c := res.Comparison(0, 1)
	if c == nil {
		t.Fatal("missing comparison 0 vs 1")
	}
	if c.CIHalf > pc.TargetCI {
		t.Fatalf("achieved CI %v exceeds target %v", c.CIHalf, pc.TargetCI)
	}
	if c.N != res.TrialsRun {
		t.Fatalf("comparison over %d pairs, want %d", c.N, res.TrialsRun)
	}
}

// Pairing must beat the unpaired Welch interval on correlated arms, and
// the diagnostics must reflect it.
func TestPairedCampaignCIWidthShrinks(t *testing.T) {
	_, arms := crnArms(t)
	res, err := PairedCampaign{
		Arms:            campaigns(arms[:2], 400, rng.Campaign(15, "crn").Scenario("width"), 0),
		ControlVariates: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comparison(0, 1)
	if c.Corr < 0.9 {
		t.Fatalf("cross-arm correlation %v, want > 0.9 for near-identical plans under CRN", c.Corr)
	}
	if c.CIHalf <= 0 || c.WelchCIHalf/c.CIHalf < 3 {
		t.Fatalf("paired CI %v vs Welch %v: want >= 3x shrink", c.CIHalf, c.WelchCIHalf)
	}
	if c.VarReduction < 9 {
		t.Fatalf("VarReduction = %v, want >= 9", c.VarReduction)
	}
	// Marginal control variates: the failure-count martingale must
	// explain a solid share of each arm's variance.
	if len(res.ArmCV) != 2 {
		t.Fatalf("ArmCV has %d entries, want 2", len(res.ArmCV))
	}
	for a, cv := range res.ArmCV {
		if cv.Corr > -0.3 {
			t.Errorf("arm %d control correlation %v, want strongly negative", a, cv.Corr)
		}
		if cv.Std >= cv.RawStd {
			t.Errorf("arm %d adjusted std %v did not improve on raw %v", a, cv.Std, cv.RawStd)
		}
		if math.Abs(cv.Mean-cv.RawMean) > 3*cv.RawStd {
			t.Errorf("arm %d adjusted mean %v implausibly far from raw %v", a, cv.Mean, cv.RawMean)
		}
	}
	if c.CVCIHalf <= 0 || c.CVCIHalf > c.CIHalf*1.05 {
		t.Fatalf("difference CV CI %v should refine (or at worst match) the paired CI %v", c.CVCIHalf, c.CIHalf)
	}
}

func TestPairedCampaignHooks(t *testing.T) {
	_, arms := crnArms(t)
	var done [3]atomic.Int64
	var events [3]atomic.Int64
	pc := PairedCampaign{Arms: campaigns(arms, 40, rng.Campaign(16, "crn").Scenario("hooks"), 4)}
	for a := range pc.Arms {
		pc.Arms[a].ObserverFactory = func(worker int) Observer { return countObs{&events[a]} }
		pc.Arms[a].TrialDone = func(r TrialResult) { done[a].Add(1) }
	}
	res, err := pc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for a := range arms {
		if got := done[a].Load(); got != int64(res.TrialsRun) {
			t.Errorf("arm %d TrialDone fired %d times, want %d", a, got, res.TrialsRun)
		}
		if events[a].Load() == 0 {
			t.Errorf("arm %d observer saw no events", a)
		}
	}
}

type countObs struct{ n *atomic.Int64 }

func (c countObs) Observe(Event) { c.n.Add(1) }

func TestPairedCampaignValidation(t *testing.T) {
	_, arms := crnArms(t)
	seed := rng.Campaign(17, "crn").Scenario("validate")
	if _, err := (PairedCampaign{Arms: campaigns(arms[:1], 10, seed, 0)}).Run(); err == nil {
		t.Error("single-arm campaign accepted")
	}
	other, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	mixed := []Scenario{arms[0], {System: other, Plan: arms[0].Plan, MaxWallFactor: 150}}
	if _, err := (PairedCampaign{Arms: campaigns(mixed, 10, seed, 0)}).Run(); err == nil ||
		!strings.Contains(err.Error(), "different system") {
		t.Errorf("mixed-system arms: err = %v, want different-system complaint", err)
	}
	law, err := dist.NewWeibull(100, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	weib := arms[0]
	weib.FailureLaws = []dist.Sampler{law}
	// Arms with different failure laws break the pairing.
	if _, err := (PairedCampaign{Arms: campaigns([]Scenario{arms[0], weib}, 10, seed, 0)}).Run(); err == nil {
		t.Error("arms with differing failure laws accepted")
	}
	// Same custom law on both arms is a valid pairing, but not a valid
	// Poisson control.
	weib2 := arms[1]
	weib2.FailureLaws = []dist.Sampler{law}
	if _, err := (PairedCampaign{Arms: campaigns([]Scenario{weib, weib2}, 10, seed, 0)}).Run(); err != nil {
		t.Errorf("shared custom law rejected: %v", err)
	}
	if _, err := (PairedCampaign{Arms: campaigns([]Scenario{weib, weib2}, 10, seed, 0), ControlVariates: true}).Run(); err == nil {
		t.Error("control variates accepted with non-exponential laws")
	}
	// Zero trials and bad workers flow through Campaign validation.
	if _, err := (PairedCampaign{Arms: campaigns(arms[:2], 0, seed, 0)}).Run(); err == nil {
		t.Error("zero-trial campaign accepted")
	}
	if _, err := (PairedCampaign{Arms: campaigns(arms[:2], 10, seed, -1)}).Run(); err == nil {
		t.Error("negative workers accepted")
	}
	// A stopping rule it cannot use is an error, not a silent full run.
	for _, target := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := (PairedCampaign{Arms: campaigns(arms[:2], 10, seed, 0), TargetCI: target}).Run(); err == nil {
			t.Errorf("TargetCI %v accepted", target)
		}
	}
}

// Arms that do not pair, or that a paired run cannot read or resume,
// are rejected with an error that names the arm.
func TestPairedCampaignArmRejections(t *testing.T) {
	_, scenarios := crnArms(t)
	seed := rng.Campaign(19, "crn").Scenario("reject")
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		edit func(pc *PairedCampaign)
		want string
	}{
		{"seed", func(pc *PairedCampaign) { pc.Arms[1].Seed = rng.Campaign(20, "crn").Scenario("reject") }, "arm 1 has a different seed"},
		{"trials", func(pc *PairedCampaign) { pc.Arms[1].Trials = 32 }, "arm 1 runs 32 trials"},
		{"block", func(pc *PairedCampaign) { pc.Arms[1].Block = 4 }, "arm 1 uses block size 4"},
		{"stream sink", func(pc *PairedCampaign) { pc.Arms[1].Sink = NewStreamSink() }, "arm 1 has a *sim.StreamSink"},
		{"shared checkpoint", func(pc *PairedCampaign) {
			pc.Arms = checkpointed(pc.Arms, dir, false, 0)
			pc.Arms[1].Checkpoint = pc.Arms[0].Checkpoint
		}, "arm 1 checkpoints to"},
		{"unaligned batch", func(pc *PairedCampaign) {
			pc.Arms = checkpointed(pc.Arms, dir, false, 0)
			for a := range pc.Arms {
				pc.Arms[a].Block = 12
			}
			pc.TargetCI = 0.01
		}, "arm 0 checkpoints, but the batch of 64 trials is not a multiple of its block size 12"},
	} {
		pc := PairedCampaign{Arms: campaigns(scenarios[:2], 48, seed, 2)}
		tc.edit(&pc)
		if _, err := pc.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// Checkpoints of a full run hold more trials than a stopping rule
	// that fires early lets the resumed run use.
	full := checkpointed(campaigns(scenarios, 240, seed, 2), dir, false, 0)
	if _, err := (PairedCampaign{Arms: full}).Run(); err != nil {
		t.Fatal(err)
	}
	_, err := PairedCampaign{Arms: checkpointed(full, dir, true, 0), TargetCI: 0.01}.Run()
	if err == nil || !strings.Contains(err.Error(), "past the stopping point") {
		t.Errorf("resume past the stop: err = %v, want a past-the-stopping-point error", err)
	}
}

// runBlocks must make a split run reproduce the full run's trials
// exactly, also when the cut is not block-aligned (the contract the
// paired campaign's sequential batches rely on): both halves fold into
// one ExactSink, whose result must equal Run's.
func TestRunBlocksSplitMatchesFullRun(t *testing.T) {
	camp := goldenD7Campaign(t)
	full, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	split := camp
	split.Workers = 3
	for _, cut := range []int{1, 37, 100, 199} {
		sink := NewExactSink()
		sink.Reserve(camp.Trials, camp.Scenario.System.NumLevels())
		for _, r := range [][2]int{{0, cut}, {cut, camp.Trials}} {
			if _, err := (&campaignRun{c: &split, sink: sink}).runBlocks(r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sink.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, res) {
			t.Fatalf("split at %d differs from full run", cut)
		}
	}
}

// checkpointed gives each arm its own checkpoint file under dir,
// resuming or halting after haltAfter merged trials (0 = never).
func checkpointed(arms []Campaign, dir string, resume bool, haltAfter int) []Campaign {
	out := append([]Campaign(nil), arms...)
	for a := range out {
		out[a].Checkpoint = &CheckpointConfig{
			Path:      filepath.Join(dir, fmt.Sprintf("arm%d.ckpt", a)),
			Interval:  24,
			Resume:    resume,
			HaltAfter: haltAfter,
		}
	}
	return out
}

// A paired campaign halted part-way (HaltAfter plays the kill) and then
// resumed from its arms' checkpoints must give the uninterrupted
// PairedResult, with and without a stopping rule, whether the halt
// comes before or after the stopping point, on 1 and 4 workers. A
// resume after the stopping point re-runs nothing.
func TestPairedCampaignKillAndResume(t *testing.T) {
	_, scenarios := crnArms(t)
	seed := rng.Campaign(18, "crn").Scenario("resume")
	const trials = 240
	for _, target := range []float64{0, 0.002} {
		for _, workers := range []int{1, 4} {
			arms := campaigns(scenarios, trials, seed, workers)
			paired := func(arms []Campaign) PairedCampaign {
				return PairedCampaign{Arms: arms, TargetCI: target, ControlVariates: true}
			}
			want, err := paired(arms).Run()
			if err != nil {
				t.Fatal(err)
			}
			stop := want.TrialsRun
			t.Logf("target %v: stops at %d", target, stop)
			if target > 0 && (stop >= trials || stop < 64) {
				t.Fatalf("target %v stops at %d; the matrix needs a stop well inside (64, %d)", target, stop, trials)
			}
			for _, haltAfter := range []int{40, stop / 2, stop + 8} {
				name := fmt.Sprintf("target=%v/workers=%d/halt=%d", target, workers, haltAfter)
				dir := t.TempDir()
				_, err := paired(checkpointed(arms, dir, false, haltAfter)).Run()
				if haltAfter < stop && !errors.Is(err, ErrCampaignHalted) {
					t.Fatalf("%s: halted run returned %v, want ErrCampaignHalted", name, err)
				}
				if haltAfter > stop && err != nil {
					t.Fatalf("%s: run that stops before its halt failed: %v", name, err)
				}
				var rerun atomic.Int64
				resumed := checkpointed(arms, dir, true, 0)
				for a := range resumed {
					resumed[a].TrialDone = func(TrialResult) { rerun.Add(1) }
				}
				got, err := paired(resumed).Run()
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: resumed PairedResult differs from the uninterrupted run", name)
				}
				if haltAfter > stop && rerun.Load() != 0 {
					t.Errorf("%s: resuming a finished run re-ran %d trials", name, rerun.Load())
				}
			}
		}
	}
}
