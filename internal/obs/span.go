package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// Span/Tracer are the runtime half of the telemetry layer: hierarchical
// wall-clock (real-time, not simulated-time) timing of campaign and
// sweep stages. A Tracer follows the same sharding discipline as
// Registry — one per goroutine, merged after the run — so the hot path
// (Start/End on an already-seen span name) performs no locking and no
// heap allocation: span identity is an index into a tracer-owned node
// arena, child lookup is a map read, and Span is a plain value.

// spanNode is one node of a tracer's span tree.
type spanNode struct {
	name     string
	parent   int32
	children map[string]int32
	count    uint64
	total    time.Duration
}

// Tracer records a tree of named spans. Not safe for concurrent use;
// shard per goroutine (see TracerPool) and merge with Adopt/Merge. A
// nil *Tracer is valid and records nothing, so instrumented code does
// not need to branch on whether tracing is enabled.
type Tracer struct {
	nodes []spanNode
	cur   int32
	now   func() time.Time // test hook
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now}
	t.nodes = append(t.nodes, spanNode{name: "", parent: -1})
	return t
}

// Span is one open span. The zero Span (and any span from a nil tracer)
// is a no-op. Spans must be ended in LIFO order per tracer.
type Span struct {
	t      *Tracer
	node   int32
	parent int32
	start  time.Time
}

// Start opens a span named name as a child of the innermost open span
// (or of the root). Starting the same name at the same position reuses
// the existing node, so the steady-state path allocates nothing.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	cur := t.cur
	idx, ok := t.nodes[cur].children[name]
	if !ok {
		idx = int32(len(t.nodes))
		t.nodes = append(t.nodes, spanNode{name: name, parent: cur})
		if t.nodes[cur].children == nil {
			t.nodes[cur].children = make(map[string]int32)
		}
		t.nodes[cur].children[name] = idx
	}
	t.cur = idx
	return Span{t: t, node: idx, parent: cur, start: t.now()}
}

// End closes the span, accumulating its wall-clock duration and count
// into the tracer's tree.
func (s Span) End() {
	t := s.t
	if t == nil {
		return
	}
	d := t.now().Sub(s.start)
	n := &t.nodes[s.node]
	n.count++
	n.total += d
	t.cur = s.parent
}

// merge folds o's subtree rooted at oidx into t's node tidx.
func (t *Tracer) merge(tidx int32, o *Tracer, oidx int32) {
	on := &o.nodes[oidx]
	t.nodes[tidx].count += on.count
	t.nodes[tidx].total += on.total
	if len(on.children) == 0 {
		return
	}
	// Deterministic insertion order, so freshly created node indices —
	// and therefore Snapshot output — do not depend on o's map order.
	names := make([]string, 0, len(on.children))
	for name := range on.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oc := on.children[name]
		tc, ok := t.nodes[tidx].children[name]
		if !ok {
			tc = int32(len(t.nodes))
			t.nodes = append(t.nodes, spanNode{name: name, parent: tidx})
			if t.nodes[tidx].children == nil {
				t.nodes[tidx].children = make(map[string]int32)
			}
			t.nodes[tidx].children[name] = tc
		}
		t.merge(tc, o, oc)
	}
}

// Merge folds o's span tree into t at the root. Counts and durations of
// spans with the same path add; new paths are created.
func (t *Tracer) Merge(o *Tracer) {
	if t == nil || o == nil || o == t {
		return
	}
	t.merge(0, o, 0)
}

// Adopt grafts o's span tree under the (closed) span s, so shard trees
// recorded by worker goroutines appear below the stage that ran them —
// e.g. a campaign's per-worker trial spans under its "run" span.
func (s Span) Adopt(o *Tracer) {
	if s.t == nil || o == nil || o == s.t {
		return
	}
	// merge adds o's root count/total into the target node; the root
	// carries none, so only the children graft.
	s.t.merge(s.node, o, 0)
}

// Graft merges o's span tree under t's innermost open span (the root
// when none is open): where o's spans would sit had they been recorded
// on t at this point. Work recorded on a private tracer by another
// goroutine — a figure-grid row, say — joins the caller's tree this way.
func (t *Tracer) Graft(o *Tracer) {
	if t == nil || o == nil || o == t {
		return
	}
	t.merge(t.cur, o, 0)
}

// SpanNode is one node of a span-tree snapshot. Children are sorted by
// name, so snapshots are deterministic for a given set of merged shards
// regardless of merge order or worker count.
type SpanNode struct {
	Name     string     `json:"name"`
	Count    uint64     `json:"count"`
	TotalNS  int64      `json:"total_ns"`
	Children []SpanNode `json:"children,omitempty"`
}

// Total returns the node's accumulated duration.
func (n SpanNode) Total() time.Duration { return time.Duration(n.TotalNS) }

func (t *Tracer) snapshotNode(idx int32) []SpanNode {
	n := &t.nodes[idx]
	if len(n.children) == 0 {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpanNode, 0, len(names))
	for _, name := range names {
		c := n.children[name]
		cn := &t.nodes[c]
		out = append(out, SpanNode{
			Name:     cn.name,
			Count:    cn.count,
			TotalNS:  int64(cn.total),
			Children: t.snapshotNode(c),
		})
	}
	return out
}

// Snapshot returns the span forest (the root's children). A nil tracer
// snapshots to nil.
func (t *Tracer) Snapshot() []SpanNode {
	if t == nil {
		return nil
	}
	return t.snapshotNode(0)
}

// TracerFromSnapshot reconstructs a tracer from a serialized span
// forest, so span trees travel across processes: a shard snapshots its
// tracer into a sidecar, the aggregator restores each forest and merges
// them with Tracer.Merge. Counts and durations are integers, so the
// round trip is lossless and fleet merges are exact.
func TracerFromSnapshot(forest []SpanNode) *Tracer {
	t := NewTracer()
	t.graft(0, forest)
	return t
}

func (t *Tracer) graft(parent int32, forest []SpanNode) {
	for _, n := range forest {
		idx := int32(len(t.nodes))
		t.nodes = append(t.nodes, spanNode{
			name:   n.Name,
			parent: parent,
			count:  n.Count,
			total:  time.Duration(n.TotalNS),
		})
		if t.nodes[parent].children == nil {
			t.nodes[parent].children = make(map[string]int32)
		}
		t.nodes[parent].children[n.Name] = idx
		t.graft(idx, n.Children)
	}
}

// MergeSpanForests merges serialized span forests into one, summing
// counts and durations along equal paths. The result is deterministic
// (children sorted by name, integer arithmetic) regardless of input
// order.
func MergeSpanForests(forests ...[]SpanNode) []SpanNode {
	t := NewTracer()
	for _, f := range forests {
		t.Merge(TracerFromSnapshot(f))
	}
	return t.Snapshot()
}

// WriteSpanSummary renders a span forest as an indented table: count,
// total, mean, and share of the parent's total.
func WriteSpanSummary(w io.Writer, spans []SpanNode) error {
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "no spans recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-36s %10s %14s %14s %7s\n", "span", "count", "total", "mean", "%par"); err != nil {
		return err
	}
	var parentTotal int64
	for _, s := range spans {
		parentTotal += s.TotalNS
	}
	return writeSpanRows(w, spans, 0, parentTotal)
}

func writeSpanRows(w io.Writer, spans []SpanNode, depth int, parentTotal int64) error {
	for _, s := range spans {
		name := strings.Repeat("  ", depth) + s.Name
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = time.Duration(s.TotalNS / int64(s.Count))
		}
		share := "-"
		if parentTotal > 0 {
			share = fmt.Sprintf("%5.1f%%", 100*float64(s.TotalNS)/float64(parentTotal))
		}
		if _, err := fmt.Fprintf(w, "  %-36s %10d %14s %14s %7s\n",
			name, s.Count, time.Duration(s.TotalNS).Round(time.Microsecond),
			mean.Round(time.Microsecond), share); err != nil {
			return err
		}
		if err := writeSpanRows(w, s.Children, depth+1, s.TotalNS); err != nil {
			return err
		}
	}
	return nil
}

// TracerPool hands out one Tracer shard per worker goroutine and merges
// them after a run — the span analogue of Pool. Shard is safe for
// concurrent use; each returned tracer must stay goroutine-local.
type TracerPool struct {
	// Now overrides the shards' clock (tests).
	Now func() time.Time

	mu     sync.Mutex
	shards []*Tracer
}

// Shard returns a fresh goroutine-local tracer registered with the pool.
func (p *TracerPool) Shard() *Tracer {
	t := NewTracer()
	if p.Now != nil {
		t.now = p.Now
	}
	p.mu.Lock()
	p.shards = append(p.shards, t)
	p.mu.Unlock()
	return t
}

// Merged merges every shard (in registration order) into a fresh tracer.
func (p *TracerPool) Merged() *Tracer {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := NewTracer()
	if p.Now != nil {
		out.now = p.Now
	}
	for _, s := range p.shards {
		out.Merge(s)
	}
	return out
}

// trialSpans brackets each simulated trial's event stream in one "trial"
// span on a goroutine-local tracer.
type trialSpans struct {
	t    *Tracer
	span Span
	open bool
}

// TrialSpans returns an observer that opens a "trial" span on the first
// event of every trial and closes it at the trial-terminal event, so a
// campaign worker's tracer accumulates real-time-per-trial under one
// node. Combine with other observers via Multi.
func TrialSpans(t *Tracer) sim.Observer {
	return &trialSpans{t: t}
}

// Observe implements sim.Observer.
func (o *trialSpans) Observe(e sim.Event) {
	if !o.open {
		o.span = o.t.Start("trial")
		o.open = true
	}
	if e.Kind == sim.EvComplete || e.Kind == sim.EvCapped {
		o.span.End()
		o.open = false
	}
}
