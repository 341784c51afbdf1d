package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func writeFlightFixture(t *testing.T, dropped int) string {
	t.Helper()
	streams := []trace.FlightStream{
		{Trial: 3, Worker: 1, Held: true, Reason: "conformance violation", Label: "dauwe",
			Records: []trace.Record{
				{Time: 1.5, Kind: "failure", Phase: "compute", Level: 2, Progress: 0.4},
				{Time: 2.0, Kind: "trial_capped", Phase: "compute", Level: 0, Progress: 0.4},
			}},
		{Trial: 5, Worker: 0, Label: "dauwe",
			Records: []trace.Record{
				{Time: 9.9, Kind: "trial_complete", Phase: "compute", Level: 0, Progress: 1},
			}},
	}
	path := filepath.Join(t.TempDir(), "flight.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteFlight(f, trace.FlightDump{Dropped: dropped, Streams: streams}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlightReader renders a dump without and with dropped holds: the
// summary line reports the drop count only when there is one.
func TestFlightReader(t *testing.T) {
	for _, tc := range []struct {
		dropped int
		summary string
	}{
		{0, "flight dump: 2 streams (1 held)\n"},
		{5, "flight dump: 2 streams (1 held), 5 dropped\n"},
	} {
		path := writeFlightFixture(t, tc.dropped)
		var out bytes.Buffer
		if err := run([]string{"-flight", path}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		for _, want := range []string{
			tc.summary,
			"HELD: conformance violation",
			"label=dauwe",
			"t=    1.500 failure",
		} {
			if !strings.Contains(s, want) {
				t.Errorf("flight rendering missing %q:\n%s", want, s)
			}
		}
	}
}

func TestFlightReaderJSON(t *testing.T) {
	path := writeFlightFixture(t, 5)
	var out bytes.Buffer
	if err := run([]string{"-flight", path, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	d, err := trace.ReadFlight(&out)
	if err != nil {
		t.Fatal(err)
	}
	streams := d.Streams
	if len(streams) != 2 || !streams[0].Held || streams[0].Trial != 3 || d.Dropped != 5 {
		t.Fatalf("round trip mangled the dump: %d dropped, streams %+v", d.Dropped, streams)
	}
}

func TestFlightReaderErrors(t *testing.T) {
	if err := run([]string{"-flight", filepath.Join(t.TempDir(), "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Error("missing dump accepted")
	}
	// A single-trial trace file is not a flight dump.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-system", "D4", "-tau0", "1.5", "-counts", "3", "-out", tracePath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-flight", tracePath}, &bytes.Buffer{}); err == nil {
		t.Error("mlckpt-trace file accepted as a flight dump")
	}
}

func TestJSONStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "D4", "-tau0", "1.5", "-counts", "3", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	// Machine-readable mode emits nothing but the trace document.
	if strings.Contains(out.String(), "system:") {
		t.Errorf("-json mixed human output into stdout:\n%s", out.String())
	}
	if len(decodeTrace(t, &out)) == 0 {
		t.Fatal("no records in -json output")
	}
}
