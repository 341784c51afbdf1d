// Package obs is the repository's metrics and telemetry substrate: a
// stdlib-only set of instruments (Counter, Gauge, streaming Histogram)
// organized into a Registry of labeled families, with JSON snapshotting
// and cross-shard Merge.
//
// The design target is the parallel experiment runner: instruments are
// plain (non-atomic, non-locking) values, so a hot loop owned by one
// goroutine pays only an increment. Concurrency is handled by sharding —
// every worker goroutine owns a private Registry (or SimMetrics) and the
// shards are merged once after the run. Registry lookup does lock, but
// callers cache the returned instrument pointers at setup time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
)

// Counter is a monotonically increasing count. Not safe for concurrent
// use; shard per goroutine and Merge.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a last-written float value. Not safe for concurrent use.
type Gauge struct {
	v   float64
	set bool
}

// Set records v.
func (g *Gauge) Set(v float64) { g.v, g.set = v, true }

// Add adds d to the current value (a never-set gauge starts at 0).
func (g *Gauge) Add(d float64) { g.v, g.set = g.v+d, true }

// Value returns the current value (0 if never set).
func (g *Gauge) Value() float64 { return g.v }

// Label is one key=value dimension of a metric family member.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// labelsFromPairs converts alternating key, value strings into sorted
// labels. It panics on an odd count — label sets are static call sites,
// so this is a programming error, not input.
func labelsFromPairs(pairs []string) []Label {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pair count %d", len(pairs)))
	}
	out := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Label{Key: pairs[i], Value: pairs[i+1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// metricID renders the canonical identity of a family member.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds labeled metric families. Registration (the Counter /
// Gauge / Histogram lookups) is mutex-guarded; the returned instruments
// are not — cache them and keep each Registry goroutine-local.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

func (r *Registry) lookup(name string, kind metricKind, labelPairs []string) *entry {
	labels := labelsFromPairs(labelPairs)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = map[string]*entry{}
	}
	if e, ok := r.entries[id]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", id, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = NewHistogram()
	}
	r.entries[id] = e
	return e
}

// Counter returns (registering on first use) the counter named name with
// the given alternating label key, value pairs.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	return r.lookup(name, kindCounter, labelPairs).c
}

// Gauge returns (registering on first use) the gauge member.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	return r.lookup(name, kindGauge, labelPairs).g
}

// Histogram returns (registering on first use) the histogram member.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	return r.lookup(name, kindHistogram, labelPairs).h
}

// Merge folds every instrument of o into r: counters and histograms add,
// gauges adopt o's value when o has set one (last writer wins). Metrics
// that exist only in o are created in r. Merging the same name with a
// different instrument kind is an error. Do not merge two registries
// into each other concurrently.
func (r *Registry) Merge(o *Registry) error {
	if o == nil || o == r {
		return nil
	}
	o.mu.Lock()
	ids := make([]string, 0, len(o.entries))
	for id := range o.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]*entry, len(ids))
	for i, id := range ids {
		entries[i] = o.entries[id]
	}
	o.mu.Unlock()

	for _, oe := range entries {
		pairs := make([]string, 0, 2*len(oe.labels))
		for _, l := range oe.labels {
			pairs = append(pairs, l.Key, l.Value)
		}
		id := metricID(oe.name, oe.labels)
		r.mu.Lock()
		re, exists := r.entries[id]
		r.mu.Unlock()
		if exists && re.kind != oe.kind {
			return fmt.Errorf("obs: merge %s: have %s, merging %s", id, re.kind, oe.kind)
		}
		switch oe.kind {
		case kindCounter:
			r.Counter(oe.name, pairs...).Add(oe.c.Value())
		case kindGauge:
			if oe.g.set {
				r.Gauge(oe.name, pairs...).Set(oe.g.Value())
			}
		case kindHistogram:
			r.Histogram(oe.name, pairs...).Merge(oe.h)
		}
	}
	return nil
}

// CounterSnapshot is one counter in a snapshot.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeSnapshot is one gauge in a snapshot. Set distinguishes an
// explicit zero from a registered-but-never-written gauge.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	Set    bool    `json:"set,omitempty"`
}

// Snapshot is a serializable, point-in-time copy of a registry, sorted
// by metric identity for deterministic output. The Spans and Stats
// sections are not populated by Registry.Snapshot — callers holding a
// Tracer or StreamSet attach them before serialization (the cmd tools'
// -metrics files and obshttp's /snapshot both do).
type Snapshot struct {
	Counters   []CounterSnapshot    `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot      `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot  `json:"histograms,omitempty"`
	Spans      []SpanNode           `json:"spans,omitempty"`
	Stats      []StreamStatSnapshot `json:"stats,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ids := make([]string, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var s Snapshot
	for _, id := range ids {
		e := r.entries[id]
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterSnapshot{Name: e.name, Labels: e.labels, Value: e.c.Value()})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: e.name, Labels: e.labels, Value: e.g.Value(), Set: e.g.set})
		case kindHistogram:
			s.Histograms = append(s.Histograms, e.h.snapshot(e.name, e.labels))
		}
	}
	r.mu.Unlock()
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// WriteJSON serializes the snapshot in the same format Registry.WriteJSON
// uses — for callers that attach Spans or Stats before writing.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// FinishRun writes a CLI run's closing artifacts, each only when asked
// for: the span summary of tracer to stdout, the telemetry snapshot of
// sink (with the spans and the stream stats) to metricsPath, and a heap
// profile to memprofile.
func FinishRun(stdout io.Writer, traceSummary bool, metricsPath, memprofile string, sink *SimMetrics, tracer *Tracer, stats *StreamSet) error {
	if traceSummary {
		fmt.Fprintln(stdout)
		if err := WriteSpanSummary(stdout, tracer.Snapshot()); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		snap := sink.Snapshot()
		if tracer != nil {
			snap.Spans = tracer.Snapshot()
		}
		if stats != nil {
			snap.Stats = stats.Snapshots()
		}
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot parses a snapshot previously produced by WriteJSON.
func ReadSnapshot(rd io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(rd).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// Counter returns the value of the named counter in the snapshot
// (summed over the family when several label sets match the name).
func (s Snapshot) Counter(name string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}
