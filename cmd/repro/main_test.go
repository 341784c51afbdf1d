package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTable1ToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quiet", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"M", "D9", "6944.45"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-quiet", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-quiet"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing experiment accepted")
	}
	if err := run([]string{"-bogus-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-quiet", "-ci-target", "0.01", "fig5"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-ci-target without -crn accepted")
	}
}

func TestFig5CRN(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizers and simulations")
	}
	var out bytes.Buffer
	if err := run([]string{"-quiet", "-fast", "-trials", "6", "-crn", "fig5"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"common random numbers", "CI shrink", "corr"} {
		if !strings.Contains(s, want) {
			t.Errorf("CRN fig5 output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "Welch one-sided") {
		t.Error("CRN fig5 still rendered the unpaired Welch table")
	}
}

func TestFig5SmallWithArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizers and simulations")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-quiet", "-fast", "-trials", "6", "-wall", "25", "-outdir", dir, "fig5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Welch") {
		t.Errorf("fig5 output missing Welch table:\n%s", out.String())
	}
	for _, name := range []string{"fig5.txt", "fig5.svg"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("artifact %s: %v", name, err)
			continue
		}
		if len(b) == 0 {
			t.Errorf("artifact %s empty", name)
		}
	}
	if !strings.HasPrefix(readFile(t, filepath.Join(dir, "fig5.svg")), "<svg") {
		t.Error("fig5.svg is not SVG")
	}
}

func TestTable1Artifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quiet", "-outdir", dir, "table1"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(readFile(t, filepath.Join(dir, "table1.txt")), "BlueGene") {
		t.Error("table1.txt missing content")
	}
	if !strings.HasPrefix(readFile(t, filepath.Join(dir, "table1.svg")), "<svg") {
		t.Error("table1.svg is not SVG")
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAllTargetsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at tiny scale")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-quiet", "-fast", "-trials", "2", "-wall", "10", "-outdir", dir, "all"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"table1.txt", "table1.svg", "fig1.svg",
		"fig2.txt", "fig2.csv", "fig2.svg",
		"fig3.txt", "fig3.svg",
		"fig4.txt", "fig4.csv", "fig4.svg",
		"fig5.txt", "fig5.svg",
		"fig6.txt", "fig6.svg",
	} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s missing or empty (%v)", name, err)
		}
	}
}

func TestAblationAndSensitivityTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	for _, target := range []string{"ablation-policy", "ablation-async", "ablation-weibull", "sensitivity"} {
		var out bytes.Buffer
		err := run([]string{"-quiet", "-fast", "-trials", "2", "-wall", "10", "-outdir", dir, target}, &out)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no stdout", target)
		}
	}
}

func TestMetricsSnapshotArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizers and simulations")
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	err := run([]string{"-quiet", "-fast", "-trials", "4", "-wall", "25", "-metrics", path, "sensitivity"}, &out)
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
	trials := snap.Counter("sim_trials_total")
	if trials == 0 {
		t.Fatal("snapshot records no trials")
	}
	if got := snap.Counter("sim_trials_completed") + snap.Counter("sim_trials_capped"); got != trials {
		t.Errorf("completed+capped = %d, want %d", got, trials)
	}
	var wall *obs.HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "sim_trial_wall_minutes" {
			wall = &snap.Histograms[i]
		}
	}
	if wall == nil {
		t.Fatal("snapshot has no wall-time histogram")
	}
	if wall.Count != trials {
		t.Errorf("wall histogram count = %d, want %d", wall.Count, trials)
	}
}
