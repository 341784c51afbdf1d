package experiments

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/system"
)

// findSpan returns the named child of a span forest, or nil.
func findSpan(nodes []obs.SpanNode, name string) *obs.SpanNode {
	for i := range nodes {
		if nodes[i].Name == name {
			return &nodes[i]
		}
	}
	return nil
}

func TestEvaluateRecordsSpanTree(t *testing.T) {
	opt := testOpts()
	opt.Fast = true
	opt.Workers = 4
	opt.Spans = obs.NewTracer()
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(sys, "dauwe", 32, rng.Campaign(7, "spans"), opt); err != nil {
		t.Fatal(err)
	}
	snap := opt.Spans.Snapshot()
	cell := findSpan(snap, "cell")
	if cell == nil || cell.Count != 1 {
		t.Fatalf("no cell span in %+v", snap)
	}
	optSpan := findSpan(cell.Children, "optimize")
	if optSpan == nil {
		t.Fatalf("no optimize span under cell: %+v", cell.Children)
	}
	// The dauwe sweep is instrumented: its worker shards graft under
	// the optimize span.
	sweep := findSpan(optSpan.Children, "sweep")
	if sweep == nil || sweep.Count == 0 {
		t.Fatalf("no sweep span under optimize: %+v", optSpan.Children)
	}
	if chunk := findSpan(sweep.Children, "chunk"); chunk == nil || chunk.Count == 0 {
		t.Fatalf("no chunk span under sweep: %+v", sweep.Children)
	}
	if refine := findSpan(optSpan.Children, "refine"); refine == nil || refine.Count != 1 {
		t.Fatalf("no refine span under optimize: %+v", optSpan.Children)
	}
	camp := findSpan(cell.Children, "campaign")
	if camp == nil {
		t.Fatalf("no campaign span under cell: %+v", cell.Children)
	}
	for _, stage := range []string{"setup", "run", "merge"} {
		if s := findSpan(camp.Children, stage); s == nil || s.Count != 1 {
			t.Fatalf("campaign stage %q missing: %+v", stage, camp.Children)
		}
	}
	run := findSpan(camp.Children, "run")
	trial := findSpan(run.Children, "trial")
	if trial == nil || trial.Count != 32 {
		t.Fatalf("trial spans under run = %+v, want count 32", run.Children)
	}
	// The cell's total must bound its children (sanity of nesting).
	if cell.TotalNS < optSpan.TotalNS+camp.TotalNS {
		t.Fatalf("cell total %d < optimize %d + campaign %d", cell.TotalNS, optSpan.TotalNS, camp.TotalNS)
	}
}

func TestEvaluateSpanTreeWithMetricsObservers(t *testing.T) {
	// Trial spans must coexist with the metrics observer chain: the
	// campaign wraps both into one observer per worker.
	opt := testOpts()
	opt.Fast = true
	opt.Metrics = obs.NewSimMetrics()
	opt.Spans = obs.NewTracer()
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Evaluate(sys, "daly", 24, rng.Campaign(7, "spans-m"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics == nil {
		t.Fatal("metrics collection lost")
	}
	snap := opt.Spans.Snapshot()
	cell := findSpan(snap, "cell")
	if cell == nil {
		t.Fatalf("no cell span: %+v", snap)
	}
	camp := findSpan(cell.Children, "campaign")
	run := findSpan(camp.Children, "run")
	trial := findSpan(run.Children, "trial")
	if trial == nil || trial.Count != 24 {
		t.Fatalf("trial spans = %+v, want count 24", run.Children)
	}
	// mergeMetrics stage actually ran (metrics pool present).
	if s := findSpan(camp.Children, "merge"); s == nil || s.Count != 1 {
		t.Fatalf("merge stage missing: %+v", camp.Children)
	}
}
