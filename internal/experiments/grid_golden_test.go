package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// gridPin is one figure run: the SHA-256 of its result's JSON and of its
// Progress line sequence.
type gridPin struct {
	Result   string `json:"result_sha256"`
	Progress string `json:"progress_sha256"`
}

// gridRun is everything one figure run leaves behind.
type gridRun struct {
	pin         gridPin
	cells       int // the result's cell count; an ablation has none
	spans       []obs.SpanNode
	metrics     obs.Snapshot
	cellMetrics [][]byte // each cell's metrics JSON, in cell order
}

// gridFigures are the pinned figure harnesses and ablations.
var gridFigures = []struct {
	name string
	crn  bool
	run  func(Options) (any, error)
}{
	{"fig2", false, func(o Options) (any, error) { return Fig2(o) }},
	{"fig3", false, func(o Options) (any, error) { return Fig3(o) }},
	{"fig4", false, func(o Options) (any, error) { return Fig4(o) }},
	{"fig5", false, func(o Options) (any, error) { return Fig5(o) }},
	{"fig5-crn", true, func(o Options) (any, error) { return Fig5(o) }},
	{"ablation-policy", false, func(o Options) (any, error) { return PolicyAblation(o, nil) }},
	{"ablation-weibull", false, func(o Options) (any, error) { return WeibullAblation(o, 0.7, nil) }},
	{"ablation-async", false, func(o Options) (any, error) { return AsyncAblation(o, nil) }},
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runGridFigure runs one figure on the Fast grids with every telemetry
// hook attached.
func runGridFigure(t *testing.T, run func(Options) (any, error), workers int, crn bool) gridRun {
	t.Helper()
	var lines []string
	opt := Options{
		Trials: 4, Seed: 3, MaxWallFactor: 15, Fast: true, Workers: workers, CRN: crn,
		Progress: func(s string) { lines = append(lines, s) },
		Spans:    obs.NewTracer(),
		Metrics:  obs.NewSimMetrics(),
	}
	res, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	// An empty count vector comes back nil or empty depending on which
	// sweep worker found the plan; the digest covers the plan, not that.
	for _, row := range gridCells(res) {
		for i := range row {
			if row[i].Plan.Counts == nil {
				row[i].Plan.Counts = []int{}
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// The pins were taken when a cell's metrics encoded as {}. The digest
	// covers the result with each cell's metrics put back to {}; the
	// metrics themselves are compared across worker counts.
	var cellMetrics [][]byte
	cells := 0
	for _, row := range gridCells(res) {
		cells += len(row)
		for _, c := range row {
			if c.Metrics == nil {
				continue
			}
			m, err := json.Marshal(c.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			field := append([]byte(`"Metrics":`), m...)
			if !bytes.Contains(b, field) {
				t.Fatalf("%s/%s: metrics %s not in the result JSON", c.System, c.Technique, m)
			}
			b = bytes.Replace(b, field, []byte(`"Metrics":{}`), 1)
			cellMetrics = append(cellMetrics, m)
		}
	}
	return gridRun{
		pin:         gridPin{Result: sha256Hex(b), Progress: sha256Hex([]byte(strings.Join(lines, "\n")))},
		cells:       cells,
		spans:       spanShape(opt.Spans.Snapshot()),
		metrics:     schedulingFree(opt.Metrics.Snapshot()),
		cellMetrics: cellMetrics,
	}
}

func gridCells(res any) [][]Cell {
	switch r := res.(type) {
	case *Fig2Result:
		return r.Cells
	case *Fig3Result:
		return r.Cells
	case *Fig4Result:
		return r.Cells
	case *Fig5Result:
		return r.Cells
	}
	return nil
}

// spanShape drops the durations of a span forest, keeping names and
// counts.
func spanShape(nodes []obs.SpanNode) []obs.SpanNode {
	var out []obs.SpanNode
	for _, n := range nodes {
		out = append(out, obs.SpanNode{Name: n.Name, Count: n.Count, Children: spanShape(n.Children)})
	}
	return out
}

// schedulingFree keeps the simulator's counters and histograms and the
// optimizer's candidate count. How a sweep's candidates split between
// evaluated and pruned, and its memo hit rates, depend on which worker
// reached a cell first, so those are left out.
func schedulingFree(s obs.Snapshot) obs.Snapshot {
	keep := func(name string) bool {
		return !strings.HasPrefix(name, "opt_") || name == "opt_candidates_total"
	}
	var out obs.Snapshot
	for _, c := range s.Counters {
		if keep(c.Name) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, h := range s.Histograms {
		if keep(h.Name) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// TestGridGoldenPins pins Figures 2–5 and the three ablations end to
// end on the Fast grids — result JSON and Progress lines — at 1 and 4
// workers, and Figure 5 under CRN. The pins were captured while the
// figure rows, and the ablations' systems, still ran one after another;
// a row scheduler that changes a result bit, a progress line or its
// order shows up here. Between the two worker counts the span tree
// (names and counts), the simulator telemetry (the merged registry and
// each cell's JSON) and the optimizer's candidate count must also
// agree.
func TestGridGoldenPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure grid")
	}
	path := filepath.Join("testdata", "grid_pins.json")
	want := map[string]gridPin{}
	if !*updatePins {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read pins (run with -update to create): %v", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]gridPin{}
	for _, fig := range gridFigures {
		var base gridRun
		for _, workers := range []int{1, 4} {
			key := fmt.Sprintf("%s/w%d", fig.name, workers)
			r := runGridFigure(t, fig.run, workers, fig.crn)
			got[key] = r.pin
			if workers == 1 {
				base = r
				if len(r.spans) == 0 || r.metrics.Counter("sim_trials_total") == 0 || len(r.cellMetrics) < r.cells {
					t.Fatalf("%s: no spans or simulator telemetry recorded", key)
				}
			} else {
				if r.pin != base.pin {
					t.Errorf("%s: %+v, workers=1 gave %+v", key, r.pin, base.pin)
				}
				if !reflect.DeepEqual(r.spans, base.spans) {
					t.Errorf("%s: span tree differs from workers=1:\n got %+v\nwant %+v", key, r.spans, base.spans)
				}
				if !reflect.DeepEqual(r.metrics, base.metrics) {
					t.Errorf("%s: telemetry differs from workers=1:\n got %+v\nwant %+v", key, r.metrics, base.metrics)
				}
				if !reflect.DeepEqual(r.cellMetrics, base.cellMetrics) {
					t.Errorf("%s: a cell's metrics JSON differs from workers=1", key)
				}
			}
			if *updatePins {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no pin", key)
			} else if w != r.pin {
				t.Errorf("%s:\n got %+v\nwant %+v", key, r.pin, w)
			}
		}
	}
	if *updatePins {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%d pins checked, file has %d", len(got), len(want))
	}
}
