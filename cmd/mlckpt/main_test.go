package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTableISystem(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-techniques", "dauwe,daly"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"D2", "dauwe", "daly", "levels=[2]", "predicted eff"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCustomSystem(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mtbf", "60", "-tb", "500", "-probs", "0.8,0.2", "-times", "0.5,5", "-techniques", "dauwe"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "custom") {
		t.Errorf("custom system not echoed:\n%s", out.String())
	}
}

func TestScalingFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "B", "-scale-mtbf", "15", "-scale-pfs", "20", "-tb", "30", "-techniques", "di"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "MTBF=15min") || !strings.Contains(s, "TB=30min") {
		t.Errorf("scaling not applied:\n%s", s)
	}
	// 30-minute app with 20-minute PFS: Di skips level 4.
	if strings.Contains(s, "levels=[3 4]") {
		t.Errorf("di should skip PFS here:\n%s", s)
	}
}

func TestSimulationColumn(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "D4", "-techniques", "daly", "-trials", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "±") {
		t.Errorf("sim column missing:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-system", "XX"},
		{"-mtbf", "60"}, // missing probs/times
		{"-mtbf", "60", "-probs", "1", "-times", "1,2"},                                           // length mismatch
		{"-mtbf", "60", "-probs", "abc", "-times", "1"},                                           // parse error
		{"-system", "D1", "-techniques", "doesnotexist"},                                          // unknown technique
		{"-mtbf", "-5", "-probs", "1", "-times", "1"},                                             // invalid mtbf
		{"-system", "D4", "-tb", "inf"},                                                           // non-finite baseline
		{"-mtbf", "60", "-probs", "1", "-times", "inf"},                                           // non-finite checkpoint time
		{"-mtbf", "60", "-probs", "nan", "-times", "1"},                                           // NaN severity probability
		{"-system", "D4", "-ci-target", "0.01", "-trials", "5"},                                   // stopping needs -crn
		{"-system", "D4", "-crn", "-techniques", "daly", "-trials", "5"},                          // pairing needs >= 2 arms
		{"-system", "D4", "-techniques", "di,moody", "-crn", "-trials", "40", "-ci-target", "-1"}, // unusable target
		{"-system", "D4", "-techniques", "di,moody", "-crn", "-trials", "8", "-ci-target", "NaN"},
		{"-system", "D4", "-techniques", "di,moody", "-trials", "8", "-ci-target", "NaN"}, // NaN > 0 is false
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestFailureStormRejected: a custom system whose wall cap lets a trial
// expect more than 10⁷ failure arrivals fails before it simulates,
// instead of running one trial for minutes.
func TestFailureStormRejected(t *testing.T) {
	for _, mtbf := range []string{"1e-6", "6e-309"} {
		args := []string{"-mtbf", mtbf, "-probs", "0.8,0.2", "-times", "0.5,2", "-techniques", "daly", "-trials", "1"}
		done := make(chan error, 1)
		go func() { done <- run(args, &bytes.Buffer{}) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "failure arrivals, above the limit of 1e+07") {
				t.Errorf("-mtbf %s: got %v, want the arrival limit error", mtbf, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("-mtbf %s: still running after 10 s", mtbf)
		}
	}
}

func TestCRNComparison(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-system", "D4", "-techniques", "di,moody", "-crn", "-trials", "30"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"CRN comparison on D4", "30/30 paired trials", "±Welch CI", "cv corr", "di", "moody"} {
		if !strings.Contains(s, want) {
			t.Errorf("CRN output missing %q:\n%s", want, s)
		}
	}
}

func TestCRNSequentialStoppingAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	err := run([]string{"-system", "D4", "-techniques", "di,moody", "-crn",
		"-trials", "200", "-ci-target", "0.01", "-metrics", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved") {
		t.Fatalf("stopping summary missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vr_trials_run_total", "vr_trials_saved_total", "sim_trials_total"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	cfg := `{"name":"filecfg","mtbf_minutes":30,"baseline_minutes":600,
	 "levels":[
	  {"checkpoint_minutes":0.5,"restart_minutes":0.5,"severity_prob":0.8},
	  {"checkpoint_minutes":4,"restart_minutes":4,"severity_prob":0.2}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-config", path, "-techniques", "dauwe"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "filecfg") {
		t.Errorf("config system not used:\n%s", out.String())
	}
	if err := run([]string{"-config", filepath.Join(dir, "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Error("missing config accepted")
	}
}

func TestFaultlogRefit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "failures.csv")
	// 9 severity-1 + 1 severity-2 failure over 100 minutes: MTBF 10.
	log := "time_minutes,severity\n"
	for i := 1; i <= 9; i++ {
		log += fmt.Sprintf("%d,1\n", i*10)
	}
	log += "100,2\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-faultlog", path, "-techniques", "dauwe"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "MTBF 10.00 min") {
		t.Errorf("refit diagnostic missing:\n%s", s)
	}
	if !strings.Contains(s, "MTBF=10min") {
		t.Errorf("system not refitted:\n%s", s)
	}
	if err := run([]string{"-system", "D2", "-faultlog", filepath.Join(dir, "none.csv")}, &bytes.Buffer{}); err == nil {
		t.Error("missing faultlog accepted")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-techniques", "dauwe,daly", "-trials", "5", "-metrics", path}, &out)
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
	// Two techniques at five trials each.
	if got := snap.Counter("sim_trials_total"); got != 10 {
		t.Errorf("trials = %d, want 10", got)
	}
	if len(snap.Histograms) == 0 {
		t.Error("snapshot has no histograms")
	}
	// The dauwe optimizer sweep shares the snapshot.
	if snap.Counter("opt_candidates_total") == 0 {
		t.Error("snapshot has no optimizer sweep candidates")
	}
	if snap.Counter("opt_evaluations_total")+snap.Counter("opt_pruned_total") != snap.Counter("opt_candidates_total") {
		t.Errorf("sweep accounting broken: evaluations %d + pruned %d != candidates %d",
			snap.Counter("opt_evaluations_total"), snap.Counter("opt_pruned_total"),
			snap.Counter("opt_candidates_total"))
	}
}

func TestCheckFlag(t *testing.T) {
	var unchecked, checked bytes.Buffer
	base := []string{"-system", "D4", "-techniques", "dauwe,moody", "-trials", "30", "-seed", "3"}
	if err := run(base, &unchecked); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-check"}, base...), &checked); err != nil {
		t.Fatal(err)
	}
	s := checked.String()
	for _, want := range []string{"conformance[dauwe]", "conformance[moody]", "all invariants held"} {
		if !strings.Contains(s, want) {
			t.Errorf("checked output missing %q:\n%s", want, s)
		}
	}
	// The checker is a pure observer: stripping its report lines must
	// leave byte-identical output.
	var stripped strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "conformance[") {
			stripped.WriteString(line)
		}
	}
	if stripped.String() != unchecked.String() {
		t.Errorf("-check changed results:\n--- unchecked:\n%s--- checked (reports stripped):\n%s",
			unchecked.String(), stripped.String())
	}
}

func TestCheckFlagWithMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	err := run([]string{"-system", "D2", "-techniques", "daly", "-trials", "10", "-check", "-metrics", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("metrics snapshot not written alongside -check: %v", err)
	}
	if !strings.Contains(out.String(), "conformance[daly]: 10 trials") {
		t.Errorf("conformance report missing:\n%s", out.String())
	}
}
