package conformance

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// FuzzEngineScenario decodes arbitrary bytes into a valid scenario, runs
// the engine under the invariant checker, and requires that every trial
// completes without panics, errors, or invariant violations. This is the
// package's strongest claim: for the whole decodable scenario space —
// not just hand-picked Table I configurations — the engine's event
// streams obey the protocol. Every trial also runs on a second engine
// with no observer, which must return a bit-identical TrialResult: the
// observed engine writes its phase-end state back before each callback,
// the bare one keeps it in locals, and the two paths must agree.
func FuzzEngineScenario(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	// Async flush + escalate on a 4-level system with a skipped level.
	f.Add([]byte{3, 40, 40, 2, 80, 80, 4, 10, 10, 1, 200, 200, 7, 30, 0x0b, 3, 0, 1, 60, 3, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		scn, ok := GenScenario(data)
		if !ok {
			t.Fatalf("GenScenario produced an invalid scenario from %x: %v", data, scn.Validate())
		}
		ck, err := NewChecker(scn)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewEngine(scn)
		if err != nil {
			t.Fatalf("engine rejected a validated scenario: %v", err)
		}
		eng.Observe(ck)
		bare, err := sim.NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		_, _ = h.Write(data)
		seed := rng.FromWords(h.Sum64(), uint64(len(data)))
		for trial := 0; trial < 3; trial++ {
			res, err := eng.Run(seed.Trial(trial))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, err := bare.Run(seed.Trial(trial))
			if err != nil {
				t.Fatalf("trial %d (unobserved): %v", trial, err)
			}
			if !sameBits(res, want) {
				t.Fatalf("trial %d: observed engine returned %+v, unobserved engine %+v", trial, res, want)
			}
			if !(res.WallTime > 0) {
				t.Fatalf("trial %d: non-positive wall time %v", trial, res.WallTime)
			}
			if res.Efficiency < 0 || res.Efficiency > 1 {
				t.Fatalf("trial %d: efficiency %v outside [0,1]", trial, res.Efficiency)
			}
		}
		if err := ck.Err(); err != nil {
			t.Fatalf("invariant violation on scenario %+v plan %v: %v", scn.System, scn.Plan, err)
		}
	})
}

// sameBits reports whether two trial results are bit-identical.
func sameBits(a, b sim.TrialResult) bool {
	floats := func(r sim.TrialResult) [9]uint64 {
		k := r.Breakdown
		return [9]uint64{
			math.Float64bits(r.WallTime), math.Float64bits(r.Progress), math.Float64bits(r.Efficiency),
			math.Float64bits(k.UsefulCompute), math.Float64bits(k.LostCompute),
			math.Float64bits(k.CheckpointOK), math.Float64bits(k.CheckpointFail),
			math.Float64bits(k.RestartOK), math.Float64bits(k.RestartFail),
		}
	}
	return floats(a) == floats(b) && slices.Equal(a.Failures, b.Failures) &&
		a.ScratchRestarts == b.ScratchRestarts && a.Completed == b.Completed
}

// FuzzPatternPlan decodes raw, possibly-invalid plans. Rejected plans
// exercise Validate's error paths; accepted plans must have a
// self-consistent odometer: LevelAfterInterval partitions the period
// exactly as CheckpointsPerPeriod claims, and the period's final
// checkpoint is the top used level.
func FuzzPatternPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 10, 10, 3, 20, 20, 5, 50, 1, 0, 0, 0, 2, 1, 2, 3, 2, 1, 128})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, plan := GenPlan(data)
		if err := plan.Validate(sys); err != nil {
			return // rejection path: must not panic, nothing more to check
		}
		n := plan.PeriodIntervals()
		if n <= 0 {
			t.Fatalf("valid plan %v has non-positive period %d", plan, n)
		}
		if n > 1<<16 {
			return // bound fuzz iteration cost on huge (but legal) periods
		}
		perPeriod := plan.CheckpointsPerPeriod()
		counted := make([]int, plan.NumUsed())
		for k := 0; k < n; k++ {
			idx := plan.LevelAfterInterval(k)
			if idx < 0 || idx >= plan.NumUsed() {
				t.Fatalf("plan %v: interval %d maps to used-level index %d of %d", plan, k, idx, plan.NumUsed())
			}
			counted[idx]++
		}
		if plan.LevelAfterInterval(n-1) != plan.NumUsed()-1 {
			t.Fatalf("plan %v: period does not end with the top used level", plan)
		}
		total := 0
		for i := range counted {
			if counted[i] != perPeriod[i] {
				t.Fatalf("plan %v: odometer gives %v checkpoints/period, CheckpointsPerPeriod gives %v",
					plan, counted, perPeriod)
			}
			total += counted[i]
		}
		if total != n {
			t.Fatalf("plan %v: %d checkpoints for %d intervals", plan, total, n)
		}
	})
}
