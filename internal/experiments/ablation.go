package experiments

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// AblationRow is one system's baseline-versus-variant comparison.
type AblationRow struct {
	System  string
	Plan    string
	Base    sim.CampaignResult
	Variant sim.CampaignResult
}

// Delta returns variant minus baseline mean efficiency.
func (r *AblationRow) Delta() float64 {
	return r.Variant.Efficiency.Mean - r.Base.Efficiency.Mean
}

// AblationResult is a design-choice study: the same optimized plans
// simulated under two protocol/system variants.
type AblationResult struct {
	Name         string
	BaseLabel    string
	VariantLabel string
	Rows         []AblationRow
}

// DefaultAblationSystems are the systems the ablations run on by
// default: one per difficulty regime.
var DefaultAblationSystems = []string{"B", "D2", "D4", "D7"}

// ablation is one design-choice study: each system's dauwe-optimized
// plan simulated under a baseline scenario and under a variant of it.
type ablation struct {
	result AblationResult // the study's name and labels
	tag    string         // seed namespace and progress-line prefix
	key    string         // names the scenario in each campaign's seed
	// logs names the baseline and the variant: on the progress line, and
	// as the technique part of each campaign's label (D2-retry,
	// D2-escalate), so that event records, sidecars and checkpoint files
	// tell the two campaigns of a row apart.
	logs [2]string
	// variant turns a copy of the baseline scenario into the variant.
	variant func(scn *sim.Scenario) error
}

// run ablates every system, each as one runRows row: systems run
// concurrently as figure rows do, and rows come back in system order.
func (a ablation) run(opt Options, systems []string) (*AblationResult, error) {
	if len(systems) == 0 {
		systems = DefaultAblationSystems
	}
	trials := opt.trials(200)
	seed := rng.Campaign(opt.seed(), a.tag)
	rows, err := runRows(opt, len(systems), func(i int, ro Options) (*AblationRow, error) {
		name := systems[i]
		sys, err := system.ByName(name)
		if err != nil {
			return nil, err
		}
		tech, err := newTechnique("dauwe", ro.Fast)
		if err != nil {
			return nil, err
		}
		plan, _, err := tech.Optimize(sys)
		if err != nil {
			return nil, err
		}
		base := sim.Scenario{System: sys, Plan: plan, MaxWallFactor: ro.wallFactor()}
		variant := base
		if err := a.variant(&variant); err != nil {
			return nil, err
		}
		row := &AblationRow{System: name, Plan: plan.String()}
		for v, scn := range []sim.Scenario{base, variant} {
			c, err := ro.runCampaign(sim.Campaign{
				Scenario: scn,
				Trials:   trials,
				Seed:     seed.Scenario(fmt.Sprintf("%s/%s%d", name, a.key, v)),
				Workers:  ro.Workers,
			}, Cell{System: sys.Name, Technique: a.logs[v]})
			if err != nil {
				return nil, err
			}
			if v == 0 {
				row.Base = c.Sim
			} else {
				row.Variant = c.Sim
			}
		}
		ro.log("%s %s: %s=%.3f %s=%.3f (Δ %+0.3f)", a.tag, name,
			a.logs[0], row.Base.Efficiency.Mean, a.logs[1], row.Variant.Efficiency.Mean, row.Delta())
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	out := a.result
	for _, r := range rows {
		out.Rows = append(out.Rows, *r)
	}
	return &out, nil
}

// PolicyAblation quantifies Moody et al.'s restart-escalation assumption
// (DESIGN.md §2.2): each system's dauwe-optimized plan is simulated under
// the realistic retry policy and under escalation. The gap is the real
// cost of the behavior Moody's model assumes, and explains that model's
// systematic efficiency underestimation (paper Section IV-G).
func PolicyAblation(opt Options, systems []string) (*AblationResult, error) {
	return ablation{
		result: AblationResult{
			Name:         "restart policy",
			BaseLabel:    "retry (realistic)",
			VariantLabel: "escalate (Moody)",
		},
		tag:  "ablation-policy",
		key:  "p",
		logs: [2]string{"retry", "escalate"},
		variant: func(scn *sim.Scenario) error {
			scn.Policy = sim.EscalatePolicy
			return nil
		},
	}.run(opt, systems)
}

// WeibullAblation probes the exponential-failures assumption shared by
// every model in the paper (Section III-B): the same dauwe-optimized
// plans are simulated under exponential failures and under Weibull
// failures with identical per-severity means and the given shape
// (k < 1 = infant mortality, the empirically observed HPC regime).
func WeibullAblation(opt Options, shape float64, systems []string) (*AblationResult, error) {
	if !(shape > 0) {
		return nil, fmt.Errorf("experiments: weibull shape %v must be positive", shape)
	}
	return ablation{
		result: AblationResult{
			Name:         fmt.Sprintf("failure law (weibull k=%g)", shape),
			BaseLabel:    "exponential",
			VariantLabel: fmt.Sprintf("weibull k=%g", shape),
		},
		tag:  "ablation-weibull",
		key:  "w",
		logs: [2]string{"exp", "weibull"},
		variant: func(scn *sim.Scenario) (err error) {
			scn.FailureLaws, err = weibullLaws(scn.System, shape)
			return err
		},
	}.run(opt, systems)
}

// weibullLaws builds per-severity Weibull laws matching the system's
// per-severity mean inter-arrival times.
func weibullLaws(sys *system.System, shape float64) ([]dist.Sampler, error) {
	laws := make([]dist.Sampler, sys.NumLevels())
	for sev := 1; sev <= sys.NumLevels(); sev++ {
		rate := sys.LevelRate(sev)
		if rate <= 0 {
			continue
		}
		// Scale so that the Weibull mean λ·Γ(1+1/k) equals 1/rate.
		w0, err := dist.NewWeibull(1, shape)
		if err != nil {
			return nil, err
		}
		w, err := dist.NewWeibull(1/(rate*w0.Mean()), shape)
		if err != nil {
			return nil, err
		}
		laws[sev-1] = w
	}
	return laws, nil
}

// AsyncAblation quantifies SCR/FTI-style asynchronous top-level flushing
// (an engineering extension beyond the paper's synchronous protocol):
// each system's dauwe-optimized plan is simulated with blocking top-level
// checkpoints and with background flushes. The gap grows with the
// top-level write cost, which is why production SCR and FTI drain to the
// PFS asynchronously. Async needs a lower capture level; every Table I
// system's dauwe-optimized plan, on the Fast grid and the full one, uses
// two or more levels.
func AsyncAblation(opt Options, systems []string) (*AblationResult, error) {
	return ablation{
		result: AblationResult{
			Name:         "top-level flush",
			BaseLabel:    "synchronous",
			VariantLabel: "async flush",
		},
		tag:  "ablation-async",
		key:  "a",
		logs: [2]string{"sync", "async"},
		variant: func(scn *sim.Scenario) error {
			scn.AsyncTopFlush = true
			return nil
		},
	}.run(opt, systems)
}
