package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

func cfg() sim.Scenario {
	return sim.Scenario{
		System: &system.System{
			Name: "trace", MTBF: 15, BaselineTime: 120,
			Levels: []system.Level{
				{Checkpoint: 0.5, Restart: 0.5, SeverityProb: 0.8},
				{Checkpoint: 2, Restart: 2, SeverityProb: 0.2},
			},
		},
		Plan: pattern.Plan{Tau0: 3, Counts: []int{2}, Levels: []int{1, 2}},
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := &Recorder{}
	eng, err := sim.NewEngine(cfg())
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(rec)
	res, err := eng.Run(rng.Campaign(9, "trace").Trial(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) == 0 {
		t.Fatal("no records")
	}
	counts := rec.Counts()
	if counts["failure"] != res.TotalFailures() {
		t.Fatalf("recorded %d failures, result has %d", counts["failure"], res.TotalFailures())
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back header
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Format != formatName || back.Version != 1 {
		t.Fatalf("document is %s version %d, want %s version 1", back.Format, back.Version, formatName)
	}
	if len(back.Records) != len(rec.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(rec.Records))
	}
	if back.Records[0] != rec.Records[0] {
		t.Fatalf("first record mangled: %+v vs %+v", back.Records[0], rec.Records[0])
	}
}

// ReadFlight, the package's one reader, rejects what is not a
// version-1 flight dump.
func TestReadRejectsGarbage(t *testing.T) {
	for _, doc := range []string{
		"not json",
		`{"format":"other","version":1}`,
		`{"format":"mlckpt-trace","version":1}`,
		`{"format":"mlckpt-flight","version":9}`,
	} {
		if _, err := ReadFlight(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
}

func TestRecordReplayIdentical(t *testing.T) {
	// Replaying the recorded failure processes with the same plan must
	// reproduce the trial exactly.
	c := cfg()
	src := rng.Campaign(10, "replay")
	res, replays, err := RecordFailures(c, src.Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFailures() == 0 {
		t.Fatal("recording saw no failures; pick a harder scenario")
	}
	res2, err := ReplayFailures(c, replays, src.Trial(1).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WallTime-res2.WallTime) > 1e-9 {
		t.Fatalf("replay wall %v != original %v", res2.WallTime, res.WallTime)
	}
	if res.TotalFailures() != res2.TotalFailures() {
		t.Fatalf("replay failures %d != original %d", res2.TotalFailures(), res.TotalFailures())
	}
}

func TestReplayWithDifferentPlan(t *testing.T) {
	// Same failures, different plan: the run differs but stays
	// deterministic across replays.
	c := cfg()
	src := rng.Campaign(11, "replay2")
	_, replays, err := RecordFailures(c, src.Trial(0).Rand())
	if err != nil {
		t.Fatal(err)
	}
	alt := c
	alt.Plan = pattern.Plan{Tau0: 6, Counts: []int{0}, Levels: []int{1, 2}}
	a, err := ReplayFailures(alt, replays, src.Trial(2).Rand())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayFailures(alt, replays, src.Trial(3).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime != b.WallTime || a.TotalFailures() != b.TotalFailures() {
		t.Fatal("replay is not deterministic")
	}
}

func TestReplaySamplerExhaustion(t *testing.T) {
	r := &ReplaySampler{Draws: []float64{1, 2}}
	if r.Remaining() != 2 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	if r.Sample(nil) != 1 || r.Sample(nil) != 2 {
		t.Fatal("replay order wrong")
	}
	if !math.IsInf(r.Sample(nil), 1) {
		t.Fatal("exhausted replay must return +Inf")
	}
	r.Rewind()
	if r.Sample(nil) != 1 {
		t.Fatal("rewind failed")
	}
	if (&ReplaySampler{}).Mean() != 0 {
		t.Fatal("empty mean")
	}
	if r.Mean() != 1.5 {
		t.Fatalf("mean = %v", r.Mean())
	}
}

func TestReplayValidation(t *testing.T) {
	c := cfg()
	if _, err := ReplayFailures(c, []*ReplaySampler{{}}, rng.Campaign(1, "x").Trial(0).Rand()); err == nil {
		t.Fatal("stream count mismatch accepted")
	}
	c.System = nil
	if _, _, err := RecordFailures(c, rng.Campaign(1, "x").Trial(0).Rand()); err == nil {
		t.Fatal("nil system accepted")
	}
}
