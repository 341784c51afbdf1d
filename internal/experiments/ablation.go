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

// PolicyAblation quantifies Moody et al.'s restart-escalation assumption
// (DESIGN.md §2.2): each system's dauwe-optimized plan is simulated under
// the realistic retry policy and under escalation. The gap is the real
// cost of the behavior Moody's model assumes, and explains that model's
// systematic efficiency underestimation (paper Section IV-G).
func PolicyAblation(opt Options, systems []string) (*AblationResult, error) {
	if len(systems) == 0 {
		systems = DefaultAblationSystems
	}
	out := &AblationResult{
		Name:         "restart policy",
		BaseLabel:    "retry (realistic)",
		VariantLabel: "escalate (Moody)",
	}
	trials := opt.trials(200)
	seed := rng.Campaign(opt.seed(), "ablation-policy")
	for _, name := range systems {
		sys, err := system.ByName(name)
		if err != nil {
			return nil, err
		}
		tech, err := newTechnique("dauwe", opt.Fast)
		if err != nil {
			return nil, err
		}
		plan, _, err := tech.Optimize(sys)
		if err != nil {
			return nil, err
		}
		row := AblationRow{System: name, Plan: plan.String()}
		for i, policy := range []sim.RestartPolicy{sim.RetryPolicy, sim.EscalatePolicy} {
			res, _, err := opt.runCampaign(sim.Campaign{
				Scenario: sim.Scenario{
					System: sys, Plan: plan, Policy: policy,
					MaxWallFactor: opt.wallFactor(),
				},
				Trials:  trials,
				Seed:    seed.Scenario(fmt.Sprintf("%s/p%d", name, i)),
				Workers: opt.Workers,
			}, sys.Name)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				row.Base = res
			} else {
				row.Variant = res
			}
		}
		opt.log("ablation-policy %s: retry=%.3f escalate=%.3f (Δ %+0.3f)",
			name, row.Base.Efficiency.Mean, row.Variant.Efficiency.Mean, row.Delta())
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
	if len(systems) == 0 {
		systems = DefaultAblationSystems
	}
	out := &AblationResult{
		Name:         fmt.Sprintf("failure law (weibull k=%g)", shape),
		BaseLabel:    "exponential",
		VariantLabel: fmt.Sprintf("weibull k=%g", shape),
	}
	trials := opt.trials(200)
	seed := rng.Campaign(opt.seed(), "ablation-weibull")
	for _, name := range systems {
		sys, err := system.ByName(name)
		if err != nil {
			return nil, err
		}
		tech, err := newTechnique("dauwe", opt.Fast)
		if err != nil {
			return nil, err
		}
		plan, _, err := tech.Optimize(sys)
		if err != nil {
			return nil, err
		}
		laws, err := weibullLaws(sys, shape)
		if err != nil {
			return nil, err
		}
		row := AblationRow{System: name, Plan: plan.String()}
		for i, fl := range [][]dist.Sampler{nil, laws} {
			res, _, err := opt.runCampaign(sim.Campaign{
				Scenario: sim.Scenario{
					System: sys, Plan: plan, FailureLaws: fl,
					MaxWallFactor: opt.wallFactor(),
				},
				Trials:  trials,
				Seed:    seed.Scenario(fmt.Sprintf("%s/w%d", name, i)),
				Workers: opt.Workers,
			}, sys.Name)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				row.Base = res
			} else {
				row.Variant = res
			}
		}
		opt.log("ablation-weibull %s: exp=%.3f weibull=%.3f (Δ %+0.3f)",
			name, row.Base.Efficiency.Mean, row.Variant.Efficiency.Mean, row.Delta())
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
// PFS asynchronously.
func AsyncAblation(opt Options, systems []string) (*AblationResult, error) {
	if len(systems) == 0 {
		systems = DefaultAblationSystems
	}
	out := &AblationResult{
		Name:         "top-level flush",
		BaseLabel:    "synchronous",
		VariantLabel: "async flush",
	}
	trials := opt.trials(200)
	seed := rng.Campaign(opt.seed(), "ablation-async")
	for _, name := range systems {
		sys, err := system.ByName(name)
		if err != nil {
			return nil, err
		}
		tech, err := newTechnique("dauwe", opt.Fast)
		if err != nil {
			return nil, err
		}
		plan, _, err := tech.Optimize(sys)
		if err != nil {
			return nil, err
		}
		if plan.NumUsed() < 2 {
			// Async needs a lower capture level; skip degenerate plans.
			continue
		}
		row := AblationRow{System: name, Plan: plan.String()}
		for i, async := range []bool{false, true} {
			res, _, err := opt.runCampaign(sim.Campaign{
				Scenario: sim.Scenario{
					System: sys, Plan: plan, AsyncTopFlush: async,
					MaxWallFactor: opt.wallFactor(),
				},
				Trials:  trials,
				Seed:    seed.Scenario(fmt.Sprintf("%s/a%d", name, i)),
				Workers: opt.Workers,
			}, sys.Name)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				row.Base = res
			} else {
				row.Variant = res
			}
		}
		opt.log("ablation-async %s: sync=%.3f async=%.3f (Δ %+0.3f)",
			name, row.Base.Efficiency.Mean, row.Variant.Efficiency.Mean, row.Delta())
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
