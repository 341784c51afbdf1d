package sim

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/system"
)

// PairedCampaign runs several scenarios ("arms" — typically one per
// checkpointing technique on the same system) under common random
// numbers: trial i of EVERY arm draws its stream from Seed.Trial(i), so
// all arms face literally the same failure-arrival realization (the
// engine consumes randomness only for failure inter-arrivals, in
// arrival order, which is plan-independent). Differences between arms
// are then paired differences on a shared environment, and their
// variance shrinks with the cross-arm correlation — the paper's
// headline claims are exactly such differences (Section IV-F), which is
// what makes CRN a 10–100× trial-count lever.
//
// Each arm runs through the same block runner as Campaign.Run, into its
// own ExactSink, so its marginal results are bitwise identical to
// running a plain Campaign{Scenario: arm, Trials, Seed} on its own: CRN
// changes which seed the arms share, never what any single arm
// computes.
type PairedCampaign struct {
	// Arms are the scenarios under comparison. All arms must share the
	// same System and failure laws — pairing is only valid when every
	// arm experiences the same failure environment.
	Arms []Scenario
	// Trials is the per-arm trial budget (the exact per-arm count when
	// sequential stopping is off).
	Trials int
	// Seed is the shared scenario-level seed: trial i of every arm runs
	// Seed.Trial(i). Deriving it per technique would silently break the
	// pairing, so callers pass one seed for the whole comparison.
	Seed rng.Seed
	// Workers bounds parallelism per batch (0 = GOMAXPROCS), with the
	// same limits as Campaign.Workers.
	Workers int
	// TargetCI, when positive, enables sequential stopping: trials run
	// in batches (all arms advance in lockstep) until the paired 95% CI
	// half-width of every pairwise mean-efficiency difference is at most
	// TargetCI, or the Trials budget is exhausted. The first check comes
	// after 16 trials per arm. The stopping decision depends only on
	// accumulated trial results, so it is deterministic for a given Seed
	// regardless of Workers.
	TargetCI float64
	// BatchSize is the per-arm trials per sequential batch (0 = 64).
	BatchSize int
	// ControlVariates additionally reports a control-variate-adjusted
	// estimate for each pairwise difference, using the failure-count
	// martingale control F − λ·W (exactly mean-zero for the default
	// exponential failure laws by the optional-stopping theorem; see
	// DESIGN.md §2.11). Requires default laws on every arm.
	ControlVariates bool
	// ObserverFactory, when non-nil, builds one Observer per (arm,
	// worker) pair, with the same contract as Campaign.ObserverFactory.
	// Arms run sequentially within a batch, so an arm's observers never
	// run concurrently with another arm's for the same worker index.
	ObserverFactory func(arm, worker int) Observer
	// TrialDone, when non-nil, is called once per completed trial with
	// the arm index; it must be safe for concurrent use.
	TrialDone func(arm int, r TrialResult)
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
	// Budget echoes PairedCampaign.Trials.
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

// Batches hold defaultBatchSize trials when BatchSize is 0; the first
// stopping check comes after pairedMinTrials trials per arm; the
// comparisons and the stopping rule use confidence level pairedLevel.
const (
	defaultBatchSize = 64
	pairedMinTrials  = 16
	pairedLevel      = 0.95
)

// Run executes the paired campaign. Every sequential batch [n, n+step)
// runs each arm through runBlocks into the arm's own ExactSink, so the
// sinks hold the same ordered trial lists, and fold to the same bits,
// as one Campaign.Run per arm.
func (pc PairedCampaign) Run() (PairedResult, error) {
	if len(pc.Arms) < 2 {
		return PairedResult{}, errors.New("sim: paired campaign needs at least two arms")
	}
	if err := pc.validate(); err != nil {
		return PairedResult{}, err
	}
	batch := pc.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}

	campaigns := make([]Campaign, len(pc.Arms))
	sinks := make([]*ExactSink, len(pc.Arms))
	for a := range pc.Arms {
		campaigns[a] = pc.armCampaign(a)
		sinks[a] = NewExactSink()
		sinks[a].Reserve(pc.Trials, pc.Arms[a].System.NumLevels())
	}

	n := 0
	for n < pc.Trials {
		step := batch
		if pc.TargetCI <= 0 {
			step = pc.Trials // no stopping rule: one full-range pass per arm
		}
		if n+step > pc.Trials {
			step = pc.Trials - n
		}
		for a := range campaigns {
			if _, err := campaigns[a].runBlocks(sinks[a], n, n+step); err != nil {
				return PairedResult{}, fmt.Errorf("sim: paired arm %d: %w", a, err)
			}
		}
		n += step
		if pc.TargetCI > 0 && n >= pairedMinTrials && pc.converged(sinks) {
			break
		}
	}

	out := PairedResult{TrialsRun: n, Budget: pc.Trials, Level: pairedLevel}
	out.Arms = make([]CampaignResult, len(pc.Arms))
	for a := range sinks {
		res, err := sinks[a].Result()
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
				controls[a][i] = failureControl(&results[i], pc.Arms[a].System)
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

// converged reports whether every pairwise paired CI half-width over
// the trials merged so far is within the target.
func (pc PairedCampaign) converged(sinks []*ExactSink) bool {
	for a := 0; a < len(sinks); a++ {
		for b := a + 1; b < len(sinks); b++ {
			ra, rb := sinks[a].Results(), sinks[b].Results()
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

// armCampaign adapts arm a's scenario and hooks into a Campaign for the
// block runner.
func (pc PairedCampaign) armCampaign(a int) Campaign {
	c := Campaign{
		Scenario: pc.Arms[a],
		Trials:   pc.Trials,
		Seed:     pc.Seed, // shared across arms: this IS the CRN
		Workers:  pc.Workers,
	}
	if pc.ObserverFactory != nil {
		c.ObserverFactory = func(worker int) Observer { return pc.ObserverFactory(a, worker) }
	}
	if pc.TrialDone != nil {
		c.TrialDone = func(r TrialResult) { pc.TrialDone(a, r) }
	}
	return c
}

// validate checks arm compatibility: pairing is only meaningful when
// every arm draws the same failure environment.
func (pc PairedCampaign) validate() error {
	base := pc.Arms[0]
	for a := range pc.Arms {
		if err := pc.armCampaign(a).validate(); err != nil {
			return fmt.Errorf("sim: paired arm %d: %w", a, err)
		}
		if pc.Arms[a].System != base.System {
			return fmt.Errorf("sim: paired arm %d uses a different system than arm 0; CRN pairing needs one shared failure environment", a)
		}
		if len(pc.Arms[a].FailureLaws) != len(base.FailureLaws) {
			return fmt.Errorf("sim: paired arm %d overrides different failure laws than arm 0", a)
		}
		for s := range pc.Arms[a].FailureLaws {
			if pc.Arms[a].FailureLaws[s] != base.FailureLaws[s] {
				return fmt.Errorf("sim: paired arm %d severity-%d failure law differs from arm 0", a, s+1)
			}
		}
		if pc.ControlVariates {
			for s, law := range pc.Arms[a].FailureLaws {
				if law != nil {
					return fmt.Errorf("sim: control variates need the default exponential laws, but arm %d overrides severity %d", a, s+1)
				}
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
