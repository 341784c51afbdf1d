package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/system"
)

// The bit patterns below were captured by running the pre-Engine
// simulator (fresh per-trial state, per-trial generator allocation) on
// the same campaigns. The Engine redesign must reproduce every one of
// them exactly: reusing the timers, stores, samplers, and PCG state is
// only legal because it is bitwise-invisible.

func goldenD7Campaign(t *testing.T) Campaign {
	t.Helper()
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{
		Scenario: Scenario{
			System: sys,
			Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
		},
		Trials: 200,
		Seed:   rng.Campaign(7, "golden").Scenario("D7/golden"),
	}
}

func goldenBCampaign(t *testing.T) Campaign {
	t.Helper()
	sys, err := system.ByName("B")
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{
		Scenario: Scenario{
			System:        sys,
			Plan:          pattern.Plan{Tau0: 2, Counts: []int{2, 1, 3}, Levels: []int{1, 2, 3, 4}},
			Policy:        EscalatePolicy,
			MaxWallFactor: 50,
			AsyncTopFlush: true,
		},
		Trials: 100,
		Seed:   rng.Campaign(7, "golden").Scenario("B/golden"),
	}
}

func checkBits(t *testing.T, name string, got float64, want uint64) {
	t.Helper()
	if math.Float64bits(got) != want {
		t.Errorf("%s = %v (bits %#016x), want bits %#016x",
			name, got, math.Float64bits(got), want)
	}
}

func TestGoldenCampaignBitIdentical(t *testing.T) {
	res, err := goldenD7Campaign(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "EffMean", res.Efficiency.Mean, 0x3fc5ae3a1eb22e66)
	checkBits(t, "EffStd", res.Efficiency.Std, 0x3f903ae9e1e015c7)
	checkBits(t, "WallMean", res.WallTime.Mean, 0x40a0bf8016ad02e6)
	checkBits(t, "WallStd", res.WallTime.Std, 0x4068d488615fea30)
	b := res.MeanBreakdown
	checkBits(t, "MeanBreakdown.UsefulCompute", b.UsefulCompute, 0x4076800000000000)
	checkBits(t, "MeanBreakdown.LostCompute", b.LostCompute, 0x407e3e0a1acfb812)
	checkBits(t, "MeanBreakdown.CheckpointOK", b.CheckpointOK, 0x407c15f822bbebac)
	checkBits(t, "MeanBreakdown.CheckpointFail", b.CheckpointFail, 0x40625c754ff20dd9)
	checkBits(t, "MeanBreakdown.RestartOK", b.RestartOK, 0x407f69f9096bb8a0)
	checkBits(t, "MeanBreakdown.RestartFail", b.RestartFail, 0x40691f958cef67e9)
	if res.Completed != 200 {
		t.Errorf("Completed = %d, want 200", res.Completed)
	}
	checkBits(t, "MeanFailures[0]", res.MeanFailures[0], 0x407bdc3d70a3d70a)
	checkBits(t, "MeanFailures[1]", res.MeanFailures[1], 0x40565fae147ae148)
	checkBits(t, "MeanScratchRestarts", res.MeanScratchRestarts, 0x3ffc8f5c28f5c28f)
	checkBits(t, "Eff[0]", res.Efficiencies[0], 0x3fc566c8f6676029)
	checkBits(t, "Eff[1]", res.Efficiencies[1], 0x3fc66d8850d77af7)
	checkBits(t, "Eff[7]", res.Efficiencies[7], 0x3fc91c45abc07ed2)
	checkBits(t, "Eff[63]", res.Efficiencies[63], 0x3fc647db8abfbc9e)
	checkBits(t, "Eff[199]", res.Efficiencies[199], 0x3fc609f66c819b5c)
}

func TestGoldenCampaignBitIdenticalEscalateAsync(t *testing.T) {
	// Exercises the four-level escalate + async-flush paths against the
	// same pre-Engine baseline.
	res, err := goldenBCampaign(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "B/EffMean", res.Efficiency.Mean, 0x3feb197ff9e26c43)
	checkBits(t, "B/WallMean", res.WallTime.Mean, 0x409a922ff3b57bf0)
	if res.Completed != 100 {
		t.Errorf("B/Completed = %d, want 100", res.Completed)
	}
	checkBits(t, "B/Eff[0]", res.Efficiencies[0], 0x3feae090dc4a79cd)
	checkBits(t, "B/Eff[99]", res.Efficiencies[99], 0x3feb318dc4ae07a1)
	b := res.MeanBreakdown
	checkBits(t, "B/Breakdown.UsefulCompute", b.UsefulCompute, 0x4096800000000000)
	checkBits(t, "B/Breakdown.LostCompute", b.LostCompute, 0x4031814925932253)
	checkBits(t, "B/Breakdown.CheckpointOK", b.CheckpointOK, 0x406e13869835141e)
	checkBits(t, "B/Breakdown.CheckpointFail", b.CheckpointFail, 0x3fcd7210826aac08)
	checkBits(t, "B/Breakdown.RestartOK", b.RestartOK, 0x400186887a8d6451)
	checkBits(t, "B/Breakdown.RestartFail", b.RestartFail, 0x3f864eae65b728f6)
}

func TestCampaignDeterministicAcrossWorkersAndReuse(t *testing.T) {
	// The full CampaignResult — Efficiencies order, MeanBreakdown, every
	// summary — must be identical for any worker count with engine
	// reuse on or off.
	base := goldenD7Campaign(t)
	base.Trials = 60 // keep the 6-way sweep quick
	var want CampaignResult
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, noReuse := range []bool{false, true} {
			c := base
			c.Workers = workers
			c.noEngineReuse = noReuse
			got, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && !noReuse {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d noReuse=%v produced different CampaignResult:\n got %+v\nwant %+v",
					workers, noReuse, got, want)
			}
		}
	}
}

func TestEngineRunMatchesRunTrial(t *testing.T) {
	// One engine reused across trials must reproduce the single-use
	// RunTrial wrapper exactly, including the PCG stream (Run reseeds
	// in place; RunTrial builds a fresh generator).
	camp := goldenD7Campaign(t)
	eng, err := NewEngine(camp.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		seed := camp.Seed.Trial(i)
		a, err := eng.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTrial(camp.Scenario, seed.Rand())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: reused engine %+v != fresh %+v", i, a, b)
		}
	}
}

func TestTrialLoopDoesNotAllocate(t *testing.T) {
	// After a warm-up trial builds the engine's generator, the
	// per-trial hot path must be allocation-free. The old code
	// allocated ~2400 objects per trial on this scenario.
	camp := goldenD7Campaign(t)
	eng, err := NewEngine(camp.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(camp.Seed.Trial(0)); err != nil {
		t.Fatal(err)
	}
	trial := 1
	avg := testing.AllocsPerRun(20, func() {
		if _, err := eng.Run(camp.Seed.Trial(trial)); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	if avg != 0 {
		t.Fatalf("reused engine allocates %.1f objects per trial, want 0", avg)
	}
}
