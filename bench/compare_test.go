package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareMetricVerdicts(t *testing.T) {
	lower := MetricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.05}
	higher := MetricSpec{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	steady := []float64{10.00, 10.02, 9.98, 10.01, 9.99, 10.03, 9.97, 10.00, 10.02, 9.98}
	noisy := []float64{10, 12, 8, 11, 9, 13, 7, 10, 12, 8}
	for _, tc := range []struct {
		name       string
		spec       MetricSpec
		base, head []float64
		want       string
	}{
		{"same runs", lower, steady, steady, Unchanged},
		{"small slowdown within bound", lower, steady, scaled(steady, 1.02), Unchanged},
		{"slowdown beyond bound", lower, steady, scaled(steady, 1.10), Regressed},
		{"speedup won on every pair", lower, steady, scaled(steady, 0.90), Improved},
		{"throughput gain", higher, steady, scaled(steady, 1.10), Improved},
		{"throughput loss", higher, steady, scaled(steady, 0.90), Regressed},
		{"base spread wider than bound", lower, noisy, scaled(noisy, 0.99), Unresolved},
		{"noisy but every head run better", lower, noisy, scaled(steady, 0.5), Improved},
		{"gain on too few pairs", lower, steady[:5], scaled(steady[:5], 0.90), Unresolved},
		{"gain smaller than base spread", lower, steady, scaled(steady, 0.999), Unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compareMetric(tc.spec, tc.base, tc.head)
			if c.Verdict != tc.want {
				t.Errorf("verdict %s, want %s (ratio %.4f, wins %d/%d)", c.Verdict, tc.want, c.Ratio, c.Wins, c.Pairs)
			}
		})
	}
}

// run is one invocation written as a result file; a zero wall writes a
// result without the metric.
type run struct {
	seed   uint64
	wall   float64
	cpu    string
	failed int
	digest string
}

func writeRuns(t *testing.T, runs ...run) []string {
	t.Helper()
	var dirs []string
	for i, r := range runs {
		dir := filepath.Join(t.TempDir(), fmt.Sprint(i))
		res := &Result{
			Schema: ResultSchema, Workload: "w", Seed: r.seed, Machine: Machine{CPU: r.cpu},
			Attempted: 100, failures: failures{Failed: r.failed}, Correct: r.failed == 0,
			Metrics: map[string]Metric{},
			Digests: map[string]string{"out": r.digest},
		}
		if r.wall != 0 {
			res.Metrics["wall_s"] = Metric{Value: r.wall, Unit: "s", N: 3}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteFile(filepath.Join(dir, "w.json")); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	return dirs
}

func TestCompare(t *testing.T) {
	spec := &Spec{
		Workloads: []SpecWorkload{{Name: "w"}},
		EndToEnd:  []MetricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.05}},
	}
	const cpu = "Test CPU"
	base := []run{{1, 10, cpu, 0, "a"}, {2, 10.1, cpu, 0, "b"}, {3, 9.9, cpu, 0, "c"}}
	for _, tc := range []struct {
		name    string
		head    []run
		ok      bool
		err     bool
		contain string
	}{
		{"same commit", []run{{1, 10.05, cpu, 0, "a"}, {2, 9.95, cpu, 0, "b"}, {3, 10, cpu, 0, "c"}}, true, false, Unchanged},
		{"regressed", []run{{1, 12, cpu, 0, "a"}, {2, 12.1, cpu, 0, "b"}, {3, 11.9, cpu, 0, "c"}}, false, false, Regressed},
		{"digest mismatch", []run{{1, 10, cpu, 0, "a"}, {2, 10, cpu, 0, "x"}, {3, 10, cpu, 0, "c"}}, false, false, "OUTPUTS DIFFER at seed 2"},
		{"other seeds need not agree", []run{{4, 10, cpu, 0, "x"}, {5, 10, cpu, 0, "y"}, {6, 10, cpu, 0, "z"}}, true, false, Unchanged},
		{"failed share rose", []run{{1, 10, cpu, 1, "a"}, {2, 10, cpu, 0, "b"}, {3, 10, cpu, 0, "c"}}, false, false, "FAILED SHARE ROSE"},
		{"cpu mismatch", []run{{1, 10, "Other CPU", 0, "a"}}, false, true, ""},
		// A head run that crashed wrote no result file.
		{"workload missing on head", nil, false, false, "MISSING: 3 base and 0 head results"},
		{"metric missing on head", []run{{1, 10, cpu, 0, "a"}, {2, 0, cpu, 0, "b"}, {3, 10, cpu, 0, "c"}}, false, false, "MISSING wall_s in 0 base and 1 head results"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			headDirs := writeRuns(t, tc.head...)
			if len(headDirs) == 0 {
				headDirs = []string{t.TempDir()}
			}
			var out strings.Builder
			ok, err := Compare(&out, spec, writeRuns(t, base...), headDirs)
			if (err != nil) != tc.err {
				t.Fatalf("err = %v, want error %v", err, tc.err)
			}
			if ok != tc.ok {
				t.Errorf("ok = %v, want %v\n%s", ok, tc.ok, out.String())
			}
			if !strings.Contains(out.String(), tc.contain) {
				t.Errorf("output lacks %q:\n%s", tc.contain, out.String())
			}
		})
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	for _, w := range Workloads {
		p, ok := pins.Workloads[w]
		if !ok || len(p.Digests)+len(p.Values) == 0 {
			t.Fatalf("no pinned outputs for %s", w)
		}
		if msgs := checkPins(w, p.Digests, p.Values); len(msgs) != 0 {
			t.Errorf("%s: pinned outputs do not match themselves: %v", w, msgs)
		}
	}
	light := pins.Workloads[CampaignLight].Values
	near := map[string]float64{}
	for k, v := range light {
		near[k] = v * (1 + 1e-12)
	}
	if msgs := checkPins(CampaignLight, nil, near); len(msgs) != 0 {
		t.Errorf("values within tolerance rejected: %v", msgs)
	}
	near["eff_mean"] = light["eff_mean"] * (1 + 1e-6)
	if msgs := checkPins(CampaignLight, nil, near); len(msgs) != 1 {
		t.Errorf("eff_mean off by 1e-6 gave %v, want one mismatch", msgs)
	}
	if msgs := checkPins(CampaignHeavy, map[string]string{"campaign_result_sha256": "0"}, nil); len(msgs) != 1 {
		t.Errorf("wrong digest gave %v, want one mismatch", msgs)
	}
}
