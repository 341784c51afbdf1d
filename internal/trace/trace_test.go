package trace

import (
	"bytes"
	"encoding/json"
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
