package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

func TestFlightDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var out bytes.Buffer
	err := run([]string{"-system", "D7", "-techniques", "dauwe,daly", "-trials", "40",
		"-check", "-flight", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flight recorder:") {
		t.Errorf("missing flight summary line:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := trace.ReadFlight(f)
	if err != nil {
		t.Fatal(err)
	}
	streams := d.Streams
	if len(streams) == 0 {
		t.Fatal("dump has no streams")
	}
	labels := map[string]bool{}
	for _, s := range streams {
		labels[s.Label] = true
		if len(s.Records) == 0 {
			t.Errorf("trial %d (%s) has no records", s.Trial, s.Label)
		}
	}
	// One campaign per technique; both must contribute streams.
	for _, want := range []string{"dauwe", "daly"} {
		if !labels[want] {
			t.Errorf("no streams labeled %q (got %v)", want, labels)
		}
	}
}

func TestTraceSummaryFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-techniques", "dauwe", "-trials", "10",
		"-trace-summary"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The cmd-level stages plus the grafted sweep and trial shards.
	for _, want := range []string{"cell", "optimize", "sweep", "campaign", "trial"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace summary missing %q:\n%s", want, s)
		}
	}
}

func TestMetricsSnapshotSpansAndStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-techniques", "daly", "-trials", "12",
		"-metrics", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) == 0 {
		t.Error("snapshot has no spans")
	}
	stats := map[string]uint64{}
	for _, st := range snap.Stats {
		stats[st.Name] = st.Count
	}
	for _, want := range []string{"trial_efficiency", "trial_walltime_minutes"} {
		if stats[want] != 12 {
			t.Errorf("stat %q count = %d, want 12 (stats: %v)", want, stats[want], stats)
		}
	}
}

func TestListenFlagSmoke(t *testing.T) {
	// End-to-end endpoint behavior is covered by the obshttp tests; here
	// we only prove the flag wires up and tears down cleanly.
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-techniques", "daly", "-trials", "5",
		"-listen", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
}
