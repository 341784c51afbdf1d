package bench

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for mlbench: the harness runs
// in-process workload reps as `<binary> child ...`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(ChildMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

func loadRepoSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesHarness checks BENCHMARK.json against the harness and
// the limits on its names, units, reasons and bounds.
func TestSpecMatchesHarness(t *testing.T) {
	spec := loadRepoSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q with a why of at most 200 chars", i, w.Name, len(w.Why), Workloads[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	largest := 0.0
	for _, m := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !seen["setup_s"] || spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first, in s, with the largest bound: %+v", spec.EndToEnd[0])
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size through the
// same code path as a full run — child processes, a real mlckptd,
// output checks, summaries — untraced and traced, plus the layer
// micro-benchmarks, and checks that each run reports every metric
// BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mlckptd and starts processes")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain to build mlckptd")
	}
	daemon := filepath.Join(t.TempDir(), "mlckptd")
	if out, err := exec.Command(goBin, "build", "-o", daemon, "repro/cmd/mlckptd").CombinedOutput(); err != nil {
		t.Fatalf("build mlckptd: %v\n%s", err, out)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec := loadRepoSpec(t)
	base := Config{Seed: 3, Seconds: 0.001, Tiny: true, Exe: exe, Mlckptd: daemon}
	layers, table, err := Layers(base.Seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if table == "" {
		t.Error("empty configuration-axis table")
	}
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			cfg := base
			cfg.Trace = traced
			res, err := Run(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d errors=%v", w, traced, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			specs := spec.EndToEnd
			if traced {
				specs = spec.PerLayer
				for k, m := range layers {
					res.Metrics[k] = m
				}
			}
			if _, err := res.SummaryLine(specs); err != nil {
				t.Errorf("%s traced=%v: %v", w, traced, err)
			}
		}
	}
}
