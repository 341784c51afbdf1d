// Package repro's benchmarks regenerate every table and figure of the
// paper at reduced scale (testing.B controls iteration; Fast mode lowers
// optimizer resolution and trial counts so one iteration stays around a
// second). The paper-scale artifacts come from `go run ./cmd/repro all`;
// these benchmarks exist so `go test -bench=.` exercises the exact same
// harness code paths end to end and reports their cost.
package repro

import (
	"io"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/model/dauwe"
	"repro/internal/model/moody"
	"repro/internal/obs"
	"repro/internal/obs/sidecar"
	"repro/internal/pattern"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// benchOpts shrinks an experiment to benchmark scale.
func benchOpts(trials int) experiments.Options {
	return experiments.Options{
		Trials:        trials,
		Seed:          1,
		MaxWallFactor: 30,
		Fast:          true,
	}
}

// BenchmarkTable1 regenerates the Table I catalog.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.TableI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates the Figure 2 five-technique comparison over
// all eleven Table I systems.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchOpts(3))
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Fig2(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the Figure 3 time-breakdown study.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchOpts(3))
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Fig3(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the Figure 4 exascale grid (20 scenarios ×
// 3 techniques).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchOpts(3))
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Fig4(io.Discard, r, "fig4"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 short-application study.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOpts(6))
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Fig5(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 prediction-error comparison.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchOpts(3))
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Fig6(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDauwePredict measures one evaluation of the paper's
// hierarchical model (the optimizer's inner loop).
func BenchmarkDauwePredict(b *testing.B) {
	sys, err := system.ByName("B")
	if err != nil {
		b.Fatal(err)
	}
	plan := pattern.Plan{Tau0: 2, Counts: []int{2, 1, 3}, Levels: []int{1, 2, 3, 4}}
	tech := dauwe.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tech.Predict(sys, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoodyPredict measures one exact Markov-chain evaluation.
func BenchmarkMoodyPredict(b *testing.B) {
	sys, err := system.ByName("B")
	if err != nil {
		b.Fatal(err)
	}
	plan := pattern.Plan{Tau0: 2, Counts: []int{2, 1, 3}, Levels: []int{1, 2, 3, 4}}
	tech := moody.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tech.Predict(sys, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// drawSink keeps BenchmarkExponentialSample's draws live.
var drawSink float64

// BenchmarkExponentialSample measures one exponential inter-arrival draw
// at D4's rate through the dist.Sampler interface, as the trial engine
// draws every arrival: a PCG uniform, dist.UnitExp and one division.
// The dist.exp_sample_ns layer metric times the same draw on the
// concrete dist.Exponential, and only inside a full mlbench run.
func BenchmarkExponentialSample(b *testing.B) {
	sys, err := system.ByName("D4")
	if err != nil {
		b.Fatal(err)
	}
	exp, err := dist.NewExponential(sys.Lambda())
	if err != nil {
		b.Fatal(err)
	}
	var law dist.Sampler = exp
	r := rng.Campaign(1, "bench-exp").Rand()
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += law.Sample(r)
	}
	drawSink = sum
}

// BenchmarkSimTrial measures one simulated trial on a failure-heavy
// system (the campaign runner's inner loop).
func BenchmarkSimTrial(b *testing.B) {
	sys, err := system.ByName("D4")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := rng.Campaign(1, "bench-sim")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(seed.Trial(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTrialPair builds two BenchmarkSimTrial engines back to
// back on one goroutine, warms each with one trial there, and then runs
// them on two goroutines at once. It reports ns per trial per engine:
// with two idle cores it matches BenchmarkSimTrial unless the engines'
// per-trial state shares cache lines, which makes every event move a
// line between the cores.
func BenchmarkSimTrialPair(b *testing.B) {
	sys, err := system.ByName("D4")
	if err != nil {
		b.Fatal(err)
	}
	scn := sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	}
	seed := rng.Campaign(1, "bench-sim")
	var engs [2]*sim.Engine
	for k := range engs {
		if engs[k], err = sim.NewEngine(scn); err != nil {
			b.Fatal(err)
		}
		if _, err := engs[k].Run(seed.Trial(k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for k, eng := range engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(seed.Trial(2*i + k)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSimTrialLight measures one simulated trial of the
// campaign-light workload: one level, MTBF 200 min, T_B 600 min,
// δ = R = 0.5 min, τ0 = 14 min. Its trials are mostly failure-free
// compute and checkpoint phases, so it weighs the engine's per-phase
// cost where BenchmarkSimTrial weighs failure handling.
func BenchmarkSimTrialLight(b *testing.B) {
	eng, err := sim.NewEngine(sim.Scenario{
		System: &system.System{
			Name: "light", MTBF: 200, BaselineTime: 600,
			Levels: []system.Level{{Checkpoint: 0.5, Restart: 0.5, SeverityProb: 1}},
		},
		Plan: pattern.Plan{Tau0: 14, Levels: []int{1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := rng.Campaign(1, "bench-sim-light")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(seed.Trial(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTrialCapped measures one simulated trial of a capped
// Figure 5 cell: system B with a 20-minute PFS, MTBF 3 min and a
// 30-minute application, under the plan τ0 = 0.5587 min, counts
// [1 0 16], all four levels, and the 150·T_B wall cap. Most of its
// trials fail until they hit the cap, so it weighs the failure storms
// that dominate the paper run, where BenchmarkSimTrial weighs a D4
// trial that completes. It reports the share of trials capped.
func BenchmarkSimTrialCapped(b *testing.B) {
	sys, err := system.ByName("B")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Scenario{
		System:        sys.WithTopCost(20).WithMTBF(3).WithBaseline(30),
		Plan:          pattern.Plan{Tau0: 0.5587, Counts: []int{1, 0, 16}, Levels: []int{1, 2, 3, 4}},
		MaxWallFactor: 150,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := rng.Campaign(1, "bench-sim-capped")
	capped := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(seed.Trial(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			capped++
		}
	}
	b.ReportMetric(float64(capped)/float64(b.N), "capped/op")
}

// BenchmarkSimTrialObserved is BenchmarkSimTrial with an obs.SimMetrics
// observer attached, to measure the cost of full event-stream telemetry
// (compare against BenchmarkSimTrial for the observer-disabled baseline;
// the bench module's obs.simmetrics_overhead_frac tracks the same cost).
func BenchmarkSimTrialObserved(b *testing.B) {
	sys, err := system.ByName("D4")
	if err != nil {
		b.Fatal(err)
	}
	m := obs.NewSimMetrics()
	eng, err := sim.NewEngine(sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	eng.Observe(m)
	seed := rng.Campaign(1, "bench-sim")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(seed.Trial(i)); err != nil {
			b.Fatal(err)
		}
	}
	if m.Trials() != uint64(b.N) {
		b.Fatalf("observer saw %d trials, want %d", m.Trials(), b.N)
	}
}

// BenchmarkAblationPolicy regenerates the restart-policy ablation.
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PolicyAblation(benchOpts(3), []string{"D4"})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Ablation(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeibull regenerates the failure-law ablation.
func BenchmarkAblationWeibull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.WeibullAblation(benchOpts(3), 0.7, []string{"D4"})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Ablation(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity regenerates the τ0 sensitivity sweep.
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sensitivity(benchOpts(3), "D4", nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Sensitivity(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAsync regenerates the async-flush ablation.
func BenchmarkAblationAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AsyncAblation(benchOpts(3), []string{"D4"})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Ablation(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates the pattern-illustration figure.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Fig1SVG(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovPeriod measures the exact chain solve for a long
// period (the Moody optimizer's inner loop).
func BenchmarkMarkovPeriod(b *testing.B) {
	sys, err := system.ByName("B")
	if err != nil {
		b.Fatal(err)
	}
	plan := pattern.Plan{Tau0: 3, Counts: []int{1, 1, 15}, Levels: []int{1, 2, 3, 4}}
	chain, err := moody.BuildChain(sys, plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.ExpectedPeriodTime(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepMoody runs the full Moody brute-force sweep (τ0 grid ×
// count vectors, exact Markov objective) on one Table I system — the
// hottest path of every figure harness. It reports evals/op, the
// Markov solves the branch-and-bound could not prune, beside the time.
// The bench module's optimize.sweep_ms.moody.B tracks its throughput.
func benchSweepMoody(b *testing.B, sysName string) {
	sys, err := system.ByName(sysName)
	if err != nil {
		b.Fatal(err)
	}
	tech := moody.New()
	reg := obs.NewRegistry()
	tech.Metrics = reg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tech.Optimize(sys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Snapshot().Counter("opt_evaluations_total"))/float64(b.N), "evals/op")
}

// BenchmarkSweepMoodyD7 is the Moody/Markov sweep on the failure-heavy
// two-level system D7.
func BenchmarkSweepMoodyD7(b *testing.B) { benchSweepMoody(b, "D7") }

// BenchmarkSweepMoodyB exercises the four-level system B, where the
// count enumeration (and thus the period-shape memo) dominates.
func BenchmarkSweepMoodyB(b *testing.B) { benchSweepMoody(b, "B") }

// BenchmarkSweepDauweD7 measures the paper's own hierarchical model
// under the same sweep machinery (closed-form objective, no Markov
// chain) for comparison.
func BenchmarkSweepDauweD7(b *testing.B) {
	sys, err := system.ByName("D7")
	if err != nil {
		b.Fatal(err)
	}
	tech := dauwe.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tech.Optimize(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignD7 is one full 200-trial campaign on the
// failure-heavy two-level system D7, exactly the shape the paper's
// figure harnesses run hundreds of times (the bench module's
// campaign-heavy wall_s measures the same path end to end). Allocations are dominated by campaign bookkeeping now that worker
// engines recycle all per-trial state.
func BenchmarkCampaignD7(b *testing.B) {
	sys, err := system.ByName("D7")
	if err != nil {
		b.Fatal(err)
	}
	camp := sim.Campaign{
		Scenario: sim.Scenario{
			System: sys,
			Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
		},
		Trials: 200,
		Seed:   rng.Campaign(1, "bench-campaign").Scenario("D7"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := camp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignD7Instrumented is BenchmarkCampaignD7 with the full
// introspection stack attached — per-worker trial spans and the flight
// recorder ring — to measure the tracing-on overhead the observability
// layer adds to a campaign (the bench module's
// obs.spans_flight_overhead_frac tracks it).
func BenchmarkCampaignD7Instrumented(b *testing.B) {
	sys, err := system.ByName("D7")
	if err != nil {
		b.Fatal(err)
	}
	scn := sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	}
	seed := rng.Campaign(1, "bench-campaign").Scenario("D7")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracers := &obs.TracerPool{}
		flight := &trace.FlightPool{}
		camp := sim.Campaign{
			Scenario: scn,
			Trials:   200,
			Seed:     seed,
			ObserverFactory: func(w int) sim.Observer {
				return obs.Multi(obs.TrialSpans(tracers.Shard()), flight.Observer(w))
			},
			TrialStart: flight.TrialStart,
		}
		if _, err := camp.Run(); err != nil {
			b.Fatal(err)
		}
		snap := tracers.Merged().Snapshot()
		if len(snap) != 1 || snap[0].Count != 200 {
			b.Fatalf("span shards lost trials: %+v", snap)
		}
	}
}

// BenchmarkCampaignD7Sidecar is BenchmarkCampaignD7 with a progress
// sidecar writer attached as the Progress hook — the fleet-observability
// configuration every shard process runs under. The writer throttles to
// its refresh interval, so a 200-trial campaign pays for at most the
// first and final sidecar writes; the figure must stay within 2% of the
// bare BenchmarkCampaignD7 baseline (the bench module's
// obs.sidecar_overhead_frac tracks it).
func BenchmarkCampaignD7Sidecar(b *testing.B) {
	sys, err := system.ByName("D7")
	if err != nil {
		b.Fatal(err)
	}
	scn := sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	}
	seed := rng.Campaign(1, "bench-campaign").Scenario("D7")
	path := b.TempDir() + "/bench" + sidecar.Suffix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := sidecar.NewWriter(path, sidecar.Meta{
			RunID: "bench", Label: "D7/bench",
		})
		camp := sim.Campaign{
			Scenario: scn,
			Trials:   200,
			Seed:     seed,
			Progress: sw.Update,
		}
		if _, err := camp.Run(); err != nil {
			b.Fatal(err)
		}
		if err := sw.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
