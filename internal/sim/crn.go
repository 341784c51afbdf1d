package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/system"
)

// PairedCampaign runs several campaigns ("arms" — typically one per
// checkpointing technique on the same system) under common random
// numbers: every arm shares one Seed, so trial i of EVERY arm draws its
// stream from Seed.Trial(i) and all arms face literally the same
// failure-arrival realization (the engine consumes randomness only for
// failure inter-arrivals, in arrival order, which is plan-independent).
// Differences between arms are then paired differences on a shared
// environment, and their variance shrinks with the cross-arm
// correlation — the paper's headline claims are exactly such
// differences (Section IV-F), which is what makes CRN a 10–100×
// trial-count lever.
//
// Each arm is an ordinary Campaign, run through Campaign.Run's prologue,
// block runner and epilogue, so its marginal result is bitwise
// identical to that Campaign's own Run, and every campaign feature
// (observers, hooks, progress, checkpoint/resume) works per arm.
type PairedCampaign struct {
	// Arms are the campaigns under comparison. They must share Trials,
	// Seed, the resolved Block, the System and the failure laws (one
	// failure environment), and each arm's Sink must be nil or an
	// *ExactSink: the paired statistics read per-trial results.
	Arms []Campaign
	// TargetCI, when positive, enables sequential stopping: trials run
	// in batches of 64 per arm (all arms advance in lockstep) until the
	// paired 95% CI half-width of every pairwise mean-efficiency
	// difference is at most TargetCI, or the Trials budget is exhausted.
	// The stopping decision depends only on accumulated trial results,
	// so it is deterministic for a given Seed regardless of Workers or
	// of where a run was resumed. A checkpointing arm's block size must
	// divide the batch, so that every batch end lies on the block grid
	// that checkpoint files are validated against.
	TargetCI float64
	// ControlVariates additionally reports a control-variate-adjusted
	// estimate for each pairwise difference, using the failure-count
	// martingale control F − λ·W (exactly mean-zero for the default
	// exponential failure laws by the optional-stopping theorem; see
	// DESIGN.md §2.11). Requires default laws on every arm.
	ControlVariates bool
}

// ArmComparison is one pairwise technique comparison out of a paired
// campaign: the paired estimate with its shrinkage diagnostics, plus
// the optional control-variate refinement of the same difference.
type ArmComparison struct {
	// A and B index PairedCampaign.Arms; the comparison estimates
	// mean(efficiency[A]) − mean(efficiency[B]).
	A, B int
	stats.Comparison
	// CV and CVCIHalf hold the control-variate-adjusted difference
	// estimate and its CI half-width (zero values when control variates
	// were off).
	CV       stats.CVResult
	CVCIHalf float64
}

// PairedResult aggregates a paired campaign.
type PairedResult struct {
	// Arms holds each arm's marginal campaign result over the trials
	// actually run. Efficiencies are index-aligned across arms: entry i
	// of every arm ran under Seed.Trial(i).
	Arms []CampaignResult
	// TrialsRun is the per-arm trial count actually executed (equal to
	// Budget unless sequential stopping fired earlier).
	TrialsRun int
	// Budget echoes the arms' Trials.
	Budget int
	// Level echoes the confidence level used (always 0.95).
	Level float64
	// Comparisons holds every ordered pair A < B.
	Comparisons []ArmComparison
	// ArmCV holds each arm's control-variate-adjusted marginal mean
	// efficiency (nil when control variates were off). The martingale
	// control explains the failure-luck component of a single arm's
	// variance, so the marginal adjustment is typically much larger
	// than the pairwise one (pairing already removed the shared
	// environment from differences).
	ArmCV []stats.CVResult
}

// TrialsSaved returns the per-arm trials the stopping rule left unrun.
func (r *PairedResult) TrialsSaved() int { return r.Budget - r.TrialsRun }

// Comparison returns the comparison between arms a and b (in either
// order; the A/B fields disambiguate) or nil if absent.
func (r *PairedResult) Comparison(a, b int) *ArmComparison {
	for i := range r.Comparisons {
		c := &r.Comparisons[i]
		if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
			return c
		}
	}
	return nil
}

// A sequential batch holds pairedBatch trials per arm, and the stopping
// rule is checked at each batch end; the comparisons and the stopping
// rule use confidence level pairedLevel.
const (
	pairedBatch = 64
	pairedLevel = 0.95
)

// Run executes the paired campaign. Every arm opens as Campaign.Run
// opens (sink, checkpoint resume), advances through the sequential
// batches [n, n+step) in lockstep via the block runner, and finishes
// with Campaign.Run's epilogue, so the arms' sinks hold the same ordered
// trial lists, and fold to the same bits, as one Campaign.Run per arm.
// A halted arm (CheckpointConfig.HaltAfter) halts the whole run with
// ErrCampaignHalted.
func (pc PairedCampaign) Run() (PairedResult, error) {
	if err := pc.validate(); err != nil {
		return PairedResult{}, err
	}
	runs := make([]*campaignRun, len(pc.Arms))
	sinks := make([]*ExactSink, len(pc.Arms))
	for a := range pc.Arms {
		r, err := pc.Arms[a].open()
		if err != nil {
			return PairedResult{}, fmt.Errorf("sim: paired arm %d: %w", a, err)
		}
		runs[a], sinks[a] = r, r.sink.(*ExactSink)
	}
	n, err := pc.lockstep(runs, sinks)
	if err != nil {
		return PairedResult{}, err
	}

	out := PairedResult{TrialsRun: n, Budget: pc.Arms[0].Trials, Level: pairedLevel}
	out.Arms = make([]CampaignResult, len(runs))
	for a, r := range runs {
		res, err := r.finish(n)
		if err != nil {
			return PairedResult{}, fmt.Errorf("sim: paired arm %d: %w", a, err)
		}
		out.Arms[a] = res
	}
	var controls [][]float64
	if pc.ControlVariates {
		controls = make([][]float64, len(pc.Arms))
		out.ArmCV = make([]stats.CVResult, len(pc.Arms))
		for a := range pc.Arms {
			results := sinks[a].Results()
			controls[a] = make([]float64, n)
			for i := range results {
				controls[a][i] = failureControl(&results[i], pc.Arms[a].Scenario.System)
			}
			cv, err := stats.ControlVariate(out.Arms[a].Efficiencies, controls[a])
			if err != nil {
				return PairedResult{}, fmt.Errorf("sim: arm %d control variate: %w", a, err)
			}
			out.ArmCV[a] = cv
		}
	}
	for a := 0; a < len(pc.Arms); a++ {
		for b := a + 1; b < len(pc.Arms); b++ {
			cmp, err := stats.PairedCompare(out.Arms[a].Efficiencies, out.Arms[b].Efficiencies, pairedLevel)
			if err != nil {
				return PairedResult{}, fmt.Errorf("sim: paired comparison %d vs %d: %w", a, b, err)
			}
			ac := ArmComparison{A: a, B: b, Comparison: cmp}
			if pc.ControlVariates {
				diffs := make([]float64, n)
				ctl := make([]float64, n)
				for i := 0; i < n; i++ {
					diffs[i] = out.Arms[a].Efficiencies[i] - out.Arms[b].Efficiencies[i]
					ctl[i] = controls[a][i] - controls[b][i]
				}
				cv, err := stats.ControlVariate(diffs, ctl)
				if err != nil {
					return PairedResult{}, fmt.Errorf("sim: control variate %d vs %d: %w", a, b, err)
				}
				ci, err := cv.CI(pairedLevel)
				if err != nil {
					return PairedResult{}, err
				}
				ac.CV, ac.CVCIHalf = cv, ci
			}
			out.Comparisons = append(out.Comparisons, ac)
		}
	}
	return out, nil
}

// lockstep runs every arm through the sequential batches and returns the
// stopping point n: the first batch end where the stopping rule holds,
// or Trials. A resumed arm already holds a prefix of its trials; a
// batch runs only what each arm lacks, and the stopping rule reads the
// prefix [0, n) of every arm, so a resumed run stops at the same n with
// the same bits. Every arm's checkpoint is flushed at n.
func (pc PairedCampaign) lockstep(runs []*campaignRun, sinks []*ExactSink) (int, error) {
	// abort ends a failed or halted run: every arm but skip (which sent
	// its final update itself, and flushed if it halted) flushes its
	// merged prefix, best effort (a failed write keeps the last
	// checkpoint), and sends its final update.
	abort := func(skip int, state RunState, err error) {
		for a, r := range runs {
			if a != skip {
				merged := len(sinks[a].Results())
				_ = r.flush(merged)
				r.end(merged, state, err)
			}
		}
	}
	trials := pc.Arms[0].Trials
	step := trials // no stopping rule: one full-range pass per arm
	if pc.TargetCI > 0 {
		step = pairedBatch
	}
	n := 0
	for n < trials {
		next := min(n+step, trials)
		for a, r := range runs {
			lo := max(len(sinks[a].Results()), n)
			if lo >= next {
				continue // resumed past this batch
			}
			halted, err := r.runBlocks(lo, next)
			if err != nil {
				err = fmt.Errorf("sim: paired arm %d: %w", a, err)
				abort(a, RunStateFailed, err)
				return 0, err
			}
			if halted {
				abort(a, RunStateHalted, nil)
				return 0, ErrCampaignHalted
			}
		}
		n = next
		if pc.TargetCI > 0 && pc.converged(sinks, n) {
			break
		}
	}
	for a, r := range runs {
		var err error
		if held := len(sinks[a].Results()); held > n {
			err = fmt.Errorf("resumed with %d trials, past the stopping point %d", held, n)
		} else {
			err = r.flush(n)
		}
		if err != nil {
			err = fmt.Errorf("sim: paired arm %d: %w", a, err)
			abort(-1, RunStateFailed, err)
			return 0, err
		}
	}
	return n, nil
}

// converged reports whether every pairwise paired CI half-width over
// the prefix [0, n) of every arm is within the target.
func (pc PairedCampaign) converged(sinks []*ExactSink, n int) bool {
	for a := 0; a < len(sinks); a++ {
		for b := a + 1; b < len(sinks); b++ {
			ra, rb := sinks[a].Results()[:n], sinks[b].Results()[:n]
			var p stats.PairedSample
			for i := range ra {
				p.Add(ra[i].Efficiency, rb[i].Efficiency)
			}
			ci, err := p.CIDiff(pairedLevel)
			if err != nil || ci > pc.TargetCI {
				return false
			}
		}
	}
	return true
}

// validate checks the paired parameters and the arms: each arm must be
// a valid Campaign, and pairing is only meaningful when every arm runs
// the same trials of the same failure environment.
func (pc PairedCampaign) validate() error {
	if len(pc.Arms) < 2 {
		return errors.New("sim: paired campaign needs at least two arms")
	}
	if !(pc.TargetCI >= 0) || math.IsInf(pc.TargetCI, 1) {
		return fmt.Errorf("sim: paired TargetCI %v is not a finite, non-negative CI half-width", pc.TargetCI)
	}
	base := &pc.Arms[0]
	for s, law := range base.Scenario.FailureLaws {
		if pc.ControlVariates && law != nil {
			return fmt.Errorf("sim: control variates need the default exponential laws, but the arms override severity %d", s+1)
		}
	}
	ckptArm := map[string]int{}
	for a := range pc.Arms {
		arm := &pc.Arms[a]
		if err := arm.validate(); err != nil {
			return fmt.Errorf("sim: paired arm %d: %w", a, err)
		}
		switch {
		case arm.Trials != base.Trials:
			return fmt.Errorf("sim: paired arm %d runs %d trials, arm 0 runs %d", a, arm.Trials, base.Trials)
		case arm.Seed != base.Seed:
			return fmt.Errorf("sim: paired arm %d has a different seed than arm 0; CRN pairing needs one shared seed", a)
		case arm.blockSize() != base.blockSize():
			return fmt.Errorf("sim: paired arm %d uses block size %d, arm 0 uses %d", a, arm.blockSize(), base.blockSize())
		case arm.Scenario.System != base.Scenario.System:
			return fmt.Errorf("sim: paired arm %d uses a different system than arm 0; CRN pairing needs one shared failure environment", a)
		case !slices.Equal(arm.Scenario.FailureLaws, base.Scenario.FailureLaws):
			return fmt.Errorf("sim: paired arm %d uses different failure laws than arm 0", a)
		}
		if _, exact := arm.Sink.(*ExactSink); arm.Sink != nil && !exact {
			return fmt.Errorf("sim: paired arm %d has a %T; paired statistics read per-trial results, so an arm's Sink must be nil or an *ExactSink", a, arm.Sink)
		}
		if ck := arm.Checkpoint; ck != nil {
			if b, ok := ckptArm[ck.Path]; ok {
				return fmt.Errorf("sim: paired arm %d checkpoints to %s, as arm %d does", a, ck.Path, b)
			}
			ckptArm[ck.Path] = a
			if pc.TargetCI > 0 && pairedBatch%arm.blockSize() != 0 {
				return fmt.Errorf("sim: paired arm %d checkpoints, but the batch of %d trials is not a multiple of its block size %d, so batch ends would fall off the block grid",
					a, pairedBatch, arm.blockSize())
			}
		}
	}
	return nil
}

// failureControl computes the martingale control variate of one trial:
// total failures observed minus the total failure rate times the wall
// time. For exponential (Poisson-process) failure laws F(t) − λt is a
// martingale and the trial end is a stopping time with finite
// expectation, so E[F(W) − λW] = 0 exactly — a known-mean control that
// is strongly correlated with how unlucky the trial's failure draw was.
func failureControl(r *TrialResult, sys *system.System) float64 {
	c := 0.0
	for s, f := range r.Failures {
		// Rounding the product explicitly keeps arm64 from fusing it
		// into the subtraction, so the control has the same bits on
		// every GOARCH.
		c += float64(f) - float64(sys.LevelRate(s+1)*r.WallTime)
	}
	return c
}
