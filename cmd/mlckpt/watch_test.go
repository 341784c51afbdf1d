package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/sidecar"
	"repro/internal/sim"
)

// TestShardSidecarsAndWatch runs both shards of a 2-way campaign split,
// then checks the progress sidecars they leave behind are complete and
// that -watch aggregates them (one-shot JSON and the text monitor).
func TestShardSidecarsAndWatch(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{"0/2", "1/2"} {
		var out bytes.Buffer
		err := run([]string{"-system", "D4", "-techniques", "daly", "-trials", "40",
			"-shard", spec, "-shard-dir", dir}, &out)
		if err != nil {
			t.Fatalf("shard %s: %v", spec, err)
		}
	}

	side, err := filepath.Glob(filepath.Join(dir, "*"+sidecar.Suffix))
	if err != nil || len(side) != 2 {
		t.Fatalf("want 2 sidecars, got %v (err %v)", side, err)
	}
	for _, p := range side {
		f, err := sidecar.Read(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if f.State != "complete" || f.TrialsMerged != f.TrialsLimit {
			t.Errorf("%s: state=%s merged=%d limit=%d", p, f.State, f.TrialsMerged, f.TrialsLimit)
		}
		if f.RunID == "" || f.Of != 2 {
			t.Errorf("%s: missing run ID or shard count: %+v", p, f)
		}
	}

	// One-shot machine-readable fleet snapshot.
	var out bytes.Buffer
	if err := run([]string{"-watch", dir, "-json"}, &out); err != nil {
		t.Fatalf("-watch -json: %v", err)
	}
	var fl sidecar.Fleet
	if err := json.Unmarshal(out.Bytes(), &fl); err != nil {
		t.Fatalf("bad fleet JSON: %v\n%s", err, out.String())
	}
	if fl.State != "complete" || len(fl.Shards) != 2 ||
		fl.TrialsTotal != 40 || fl.TrialsMerged != 40 {
		t.Fatalf("fleet = %+v", fl)
	}

	// The text monitor exits on its own once the fleet is terminal.
	out.Reset()
	if err := run([]string{"-watch", dir, "-watch-interval", "10ms"}, &out); err != nil {
		t.Fatalf("-watch: %v", err)
	}
	if s := out.String(); !strings.Contains(s, "fleet complete") || !strings.Contains(s, "1/2") {
		t.Errorf("monitor output missing fleet summary or shard line:\n%s", s)
	}
}

// TestWatchReportsFailedShards: a failed sidecar makes one-shot -watch
// -json exit nonzero so fleet drivers notice without parsing.
func TestWatchReportsFailedShards(t *testing.T) {
	dir := t.TempDir()
	w := sidecar.NewWriter(filepath.Join(dir, "bad.progress"), sidecar.Meta{
		RunID: "deadbeef", Label: "D4/daly", Shard: 0, Of: 1,
	})
	w.Update(sim.ProgressUpdate{
		First: 0, Limit: 40, Merged: 12, Total: 40,
		State: sim.RunStateFailed, Final: true, Err: errors.New("boom"),
	})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := run([]string{"-watch", dir, "-json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("want failed-shard error, got %v", err)
	}
	var fl sidecar.Fleet
	if err := json.Unmarshal(out.Bytes(), &fl); err != nil {
		t.Fatalf("bad fleet JSON: %v\n%s", err, out.String())
	}
	if fl.State != "failed" || fl.Failed != 1 {
		t.Fatalf("fleet = %+v", fl)
	}
}

// TestShardRunTelemetry: a shard run reports progress, live trial stats
// and trial spans over its own trial range, as a whole run does over
// all of its trials.
func TestShardRunTelemetry(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	stdout, stderr, err := runStderr(t, "-system", "D4", "-techniques", "daly", "-trials", "40",
		"-shard", "0/2", "-shard-dir", dir, "-progress", "-metrics", metrics, "-trace-summary")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sim.ShardRange(40, 0, 0, 2)
	n := hi - lo
	if want := fmt.Sprintf("done — %d/%d trials (100.0%%)", n, n); !strings.Contains(stderr, want) {
		t.Errorf("progress never reached the shard's %d trials (want %q):\n%s", n, want, stderr)
	}
	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]uint64{}
	for _, st := range snap.Stats {
		stats[st.Name] = st.Count
	}
	for _, name := range []string{"trial_efficiency", "trial_walltime_minutes"} {
		if stats[name] != uint64(n) {
			t.Errorf("stat %q count = %d, want %d", name, stats[name], n)
		}
	}
	spans := 0
	for _, line := range strings.Split(stdout, "\n") {
		if fields := strings.Fields(line); len(fields) > 1 && fields[0] == "trial" {
			spans, _ = strconv.Atoi(fields[1])
		}
	}
	if spans != n {
		t.Errorf("trace summary has %d trial spans, want %d:\n%s", spans, n, stdout)
	}
}
