// Trade-off ablation: the same failures, different protocol choices.
// A paired campaign runs (a) the optimized multilevel plan, (b) a
// single-level PFS-only plan, and (c) the multilevel plan under Moody's
// pessimistic restart-escalation semantics on common random numbers:
// trial i of every arm draws its failures from the same trial seed, so
// each arm's difference from the optimized plan isolates what its design
// choice costs with the randomness held constant.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"

	"repro/internal/model/dauwe"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

func main() {
	sys, err := system.ByName("D4") // MTBF 6 min, two levels
	if err != nil {
		log.Fatal(err)
	}
	plan, _, err := dauwe.New().Optimize(sys)
	if err != nil {
		log.Fatal(err)
	}
	base := sim.Scenario{System: sys, Plan: plan}
	// PFS-only checkpointing at twice the interval.
	pfsOnly := base
	pfsOnly.Plan = pattern.Plan{Tau0: plan.Tau0 * 2, Levels: []int{sys.NumLevels()}}
	esc := base
	esc.Policy = sim.EscalatePolicy
	arms := []struct {
		name string
		scn  sim.Scenario
	}{
		{"multilevel plan " + plan.String(), base},
		{"PFS-only plan " + pfsOnly.Plan.String(), pfsOnly},
		{"multilevel + restart escalation", esc},
	}

	pc := sim.PairedCampaign{}
	seed := rng.Campaign(3, "tradeoff-example").Scenario(sys.Name)
	for _, a := range arms {
		pc.Arms = append(pc.Arms, sim.Campaign{Scenario: a.scn, Trials: 200, Seed: seed})
	}
	res, err := pc.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d trials per arm; trial i of every arm faces the same failures\n\n", res.TrialsRun)
	fmt.Printf("%-48s %10s  %s\n", "arm", "efficiency", "minus optimized (95% CI)")
	for i, a := range arms {
		fmt.Printf("%-48s %10.4f", a.name, res.Arms[i].Efficiency.Mean)
		if c := res.Comparison(0, i); c != nil {
			fmt.Printf("  %+.4f ± %.4f", -c.MeanDiff, c.CIHalf)
		}
		fmt.Println()
	}

	fmt.Println("\nWith the failure process held fixed, the multilevel pattern wins by")
	fmt.Println("recovering cheap failures from cheap checkpoints, and the escalation")
	fmt.Println("assumption visibly inflates recovery cost — the two effects the paper's")
	fmt.Println("model accounts for and Moody's overestimates.")
}
