package obshttp

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// Live is a concurrency-safe telemetry source for long-running commands.
// The registry snapshot, span forest, and flight dump are *checkpointed*:
// the command publishes them at stage boundaries (after each technique or
// experiment target), because worker-sharded instruments only become
// coherent once their shards merge. The StreamSet carries the genuinely
// live per-trial values — workers publish into it mid-run, and every
// /metrics scrape sees current quantiles and counts.
type Live struct {
	// Stats holds the live streaming estimators. Safe for concurrent
	// Observe/Snapshots; commands feed it from campaign TrialDone hooks.
	Stats *obs.StreamSet

	mu     sync.Mutex
	snap   obs.Snapshot
	spans  []obs.SpanNode
	flight []byte
	ready  bool
	shards func() (any, error)
}

// NewLive returns a source with an empty stream set.
func NewLive() *Live {
	return &Live{Stats: obs.NewStreamSet()}
}

// PublishSnapshot checkpoints the registry snapshot served at /metrics
// and /snapshot. Call it from the goroutine that owns the registry.
func (l *Live) PublishSnapshot(s obs.Snapshot) {
	l.mu.Lock()
	l.snap = s
	l.mu.Unlock()
}

// PublishSpans checkpoints the span forest served at /spans.
func (l *Live) PublishSpans(spans []obs.SpanNode) {
	l.mu.Lock()
	l.spans = spans
	l.mu.Unlock()
}

// PublishFlight renders a flight dump (wire it to
// trace.WriteFlight) and checkpoints the bytes served at /flight.
func (l *Live) PublishFlight(dump func(io.Writer) error) error {
	var b bytes.Buffer
	if err := dump(&b); err != nil {
		return err
	}
	l.mu.Lock()
	l.flight = b.Bytes()
	l.mu.Unlock()
	return nil
}

// SetReady flips the /readyz state. Commands mark themselves ready once
// sources are publishing (e.g. after the first experiment target starts)
// and may clear it during shutdown so probes drain traffic first.
func (l *Live) SetReady(ready bool) {
	l.mu.Lock()
	l.ready = ready
	l.mu.Unlock()
}

// SetShards installs the fleet progress source served at /shards —
// typically a closure scanning a sidecar directory into a
// sidecar.Fleet. Install before calling Options/Serve.
func (l *Live) SetShards(f func() (any, error)) {
	l.mu.Lock()
	l.shards = f
	l.mu.Unlock()
}

func (l *Live) isReady() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ready
}

func (l *Live) snapshot() obs.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap
}

func (l *Live) spanForest() []obs.SpanNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans
}

func (l *Live) writeFlight(w io.Writer) error {
	l.mu.Lock()
	b := l.flight
	l.mu.Unlock()
	if b == nil {
		return fmt.Errorf("obshttp: no flight dump published")
	}
	_, err := w.Write(b)
	return err
}

// Options builds handler options backed by this source. The /flight
// endpoint is wired only if a dump has already been published (publish
// an empty pool's dump before calling Serve to enable it).
func (l *Live) Options() Options {
	o := Options{
		Snapshot: l.snapshot,
		Spans:    l.spanForest,
		Stats:    l.Stats.Snapshots,
		Ready:    l.isReady,
	}
	l.mu.Lock()
	if l.flight != nil {
		o.Flight = l.writeFlight
	}
	if l.shards != nil {
		o.Shards = l.shards
	}
	l.mu.Unlock()
	return o
}
