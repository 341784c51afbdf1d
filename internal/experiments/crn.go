package experiments

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// VarianceReport is a head-to-head technique comparison on one system
// under common random numbers: each technique's optimized plan and
// marginal campaign result, plus every pairwise paired-difference
// estimate (and, when control variates are on, the martingale-adjusted
// refinements).
type VarianceReport struct {
	System     string
	Techniques []string
	// Cells aligns with Techniques; Sim holds each arm's marginal
	// result over the trials actually run.
	Cells []Cell
	// Paired carries the comparisons, stopping outcome and per-arm
	// control-variate estimates.
	Paired sim.PairedResult
}

// Comparison returns the paired comparison between two techniques by
// name, or nil if either is absent.
func (r *VarianceReport) Comparison(a, b string) *sim.ArmComparison {
	ai, bi := indexOf(r.Techniques, a), indexOf(r.Techniques, b)
	if ai < 0 || bi < 0 {
		return nil
	}
	return r.Paired.Comparison(ai, bi)
}

// CompareTechniques optimizes each technique on the system and runs all
// resulting plans as one CRN paired campaign (Options.CRN is implied;
// Options.CITarget drives sequential stopping, and control variates are
// always reported since the comparison exists to squeeze variance). Every other campaign option applies to each technique's
// arm as it does to a figure cell. Options.Trials falls back to the
// paper's Figure 5 count of 400.
func CompareTechniques(sys *system.System, techs []string, opt Options) (*VarianceReport, error) {
	if len(techs) < 2 {
		return nil, fmt.Errorf("experiments: comparing %d technique(s); need at least two", len(techs))
	}
	cells, res, err := opt.pairedRow(sys, techs, opt.trials(400), rng.Campaign(opt.seed(), "crn").Scenario(sys.Name), true)
	if err != nil {
		return nil, fmt.Errorf("experiments: crn campaign on %s: %w", sys.Name, err)
	}
	for _, c := range cells {
		opt.log("crn %s/%s: plan=%v pred=%.3f", c.System, c.Technique, c.Plan, c.Predicted.Efficiency)
	}
	return &VarianceReport{System: sys.Name, Techniques: techs, Cells: cells, Paired: *res}, nil
}
