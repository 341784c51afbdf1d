package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// fakeClock advances a fixed step per reading, so span durations are
// deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func testTracer(step time.Duration) *Tracer {
	t := NewTracer()
	t.now = (&fakeClock{t: time.Unix(0, 0), step: step}).now
	return t
}

func TestTracerTree(t *testing.T) {
	tr := testTracer(time.Millisecond)
	outer := tr.Start("campaign")
	for i := 0; i < 3; i++ {
		tr.Start("run").End()
	}
	outer.End()
	tr.Start("merge").End()

	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("root has %d children, want 2: %+v", len(snap), snap)
	}
	// Sorted by name: campaign before merge.
	if snap[0].Name != "campaign" || snap[1].Name != "merge" {
		t.Fatalf("children = %q, %q", snap[0].Name, snap[1].Name)
	}
	c := snap[0]
	if c.Count != 1 || len(c.Children) != 1 {
		t.Fatalf("campaign node = %+v", c)
	}
	run := c.Children[0]
	if run.Name != "run" || run.Count != 3 {
		t.Fatalf("run node = %+v", run)
	}
	// Each run span is one clock step (start and end readings 1ms apart);
	// campaign wraps all three plus its own readings.
	if run.TotalNS != int64(3*time.Millisecond) {
		t.Errorf("run total = %v, want 3ms", run.Total())
	}
	if c.TotalNS <= run.TotalNS {
		t.Errorf("campaign total %v not larger than nested runs %v", c.Total(), run.Total())
	}
}

func TestTracerNilNoop(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	s.End()
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %+v", got)
	}
	Span{}.End() // zero span is a no-op too
}

func TestTracerMergeOrderIndependent(t *testing.T) {
	build := func(names ...string) *Tracer {
		tr := testTracer(time.Millisecond)
		for _, n := range names {
			outer := tr.Start(n)
			tr.Start("inner").End()
			outer.End()
		}
		return tr
	}
	a := build("alpha", "beta")
	b := build("beta", "gamma", "alpha")

	ab := NewTracer()
	ab.Merge(a)
	ab.Merge(b)
	ba := NewTracer()
	ba.Merge(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab.Snapshot(), ba.Snapshot()) {
		t.Fatalf("merge order changed snapshot:\n%+v\nvs\n%+v", ab.Snapshot(), ba.Snapshot())
	}
}

func TestSpanAdoptGrafts(t *testing.T) {
	shard := testTracer(time.Millisecond)
	for i := 0; i < 5; i++ {
		shard.Start("trial").End()
	}
	main := testTracer(time.Millisecond)
	run := main.Start("run")
	run.End()
	run.Adopt(shard)
	snap := main.Snapshot()
	if len(snap) != 1 || snap[0].Name != "run" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap[0].Children) != 1 || snap[0].Children[0].Name != "trial" || snap[0].Children[0].Count != 5 {
		t.Fatalf("grafted children = %+v", snap[0].Children)
	}
}

func TestTracerGraftNestsUnderOpenSpan(t *testing.T) {
	row := testTracer(time.Millisecond)
	row.Start("cell").End()
	row.Start("cell").End()
	main := testTracer(time.Millisecond)
	main.Graft(row) // nothing open: lands at the root
	fig := main.Start("fig5")
	main.Graft(row)
	main.Start("after").End()
	fig.End()
	want := []SpanNode{
		{Name: "cell", Count: 2},
		{Name: "fig5", Count: 1, Children: []SpanNode{{Name: "after", Count: 1}, {Name: "cell", Count: 2}}},
	}
	if got := spanNames(main.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("tree = %+v, want %+v", got, want)
	}
	var nilTracer *Tracer
	nilTracer.Graft(row) // no-op
}

// spanNames strips durations from a span forest.
func spanNames(nodes []SpanNode) []SpanNode {
	var out []SpanNode
	for _, n := range nodes {
		out = append(out, SpanNode{Name: n.Name, Count: n.Count, Children: spanNames(n.Children)})
	}
	return out
}

func TestTracerStartEndDoesNotAllocate(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start("outer")
	tr.Start("inner").End()
	outer.End()
	avg := testing.AllocsPerRun(100, func() {
		o := tr.Start("outer")
		tr.Start("inner").End()
		o.End()
	})
	if avg != 0 {
		t.Fatalf("steady-state Start/End allocates %.1f objects, want 0", avg)
	}
}

// spanCampaign runs a small D7 campaign with per-worker tracer shards
// attached via TrialSpans and returns the merged span snapshot.
func spanCampaign(t *testing.T, workers int, pool *TracerPool) []SpanNode {
	t.Helper()
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	camp := sim.Campaign{
		Scenario: sim.Scenario{
			System: sys,
			Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
		},
		Trials:  48,
		Seed:    rng.Campaign(7, "span").Scenario("D7/span"),
		Workers: workers,
		ObserverFactory: func(worker int) sim.Observer {
			// Each worker shard gets a private deterministic clock: every
			// trial span is exactly one clock step, so the merged totals
			// are identical however the 48 trials are partitioned.
			sh := pool.Shard()
			sh.now = (&fakeClock{t: time.Unix(0, 0), step: time.Microsecond}).now
			return TrialSpans(sh)
		},
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	return pool.Merged().Snapshot()
}

func TestTrialSpanShardsMergeAcrossWorkerCounts(t *testing.T) {
	// Satellite: the merged span tree must be identical (names, nesting,
	// counts, and — under per-shard deterministic clocks — durations) for
	// 1, 4, and 16 workers.
	var want []SpanNode
	for i, workers := range []int{1, 4, 16} {
		got := spanCampaign(t, workers, &TracerPool{})
		if len(got) != 1 || got[0].Name != "trial" || got[0].Count != 48 {
			t.Fatalf("workers=%d: merged tree = %+v", workers, got)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d span tree differs:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestTrialSpansObserverDoesNotAllocate(t *testing.T) {
	// The per-event observer path (span open on first event, close on
	// trial end) must stay allocation-free so flight/span-instrumented
	// campaigns keep the engine's 0 allocs/trial property.
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	eng.Observe(TrialSpans(tr))
	seed := rng.Campaign(7, "span-alloc").Scenario("D7")
	if _, err := eng.Run(seed.Trial(0)); err != nil {
		t.Fatal(err)
	}
	trial := 1
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(seed.Trial(trial)); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	if avg > 1 {
		t.Fatalf("span-observed trial allocates %.1f objects, want ~0", avg)
	}
}

func TestWriteSpanSummary(t *testing.T) {
	tr := testTracer(time.Millisecond)
	outer := tr.Start("campaign")
	tr.Start("run").End()
	outer.End()
	var buf bytes.Buffer
	if err := WriteSpanSummary(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"span", "campaign", "run", "count"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteSpanSummary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty summary = %q", buf.String())
	}
}
