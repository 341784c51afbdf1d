// Package obshttp exposes a running campaign's telemetry over HTTP,
// stdlib-only: Prometheus text exposition at /metrics, the registry
// JSON snapshot at /snapshot, the span-tree summary at /spans, the
// flight-recorder dump at /flight, and net/http/pprof under
// /debug/pprof/. Sources are pull-based functions, so handlers always
// observe current state — StreamStats and snapshot sources safe for
// concurrent use show live mid-run values, while worker-sharded
// instruments appear once their shards merge.
package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
)

// Options wires telemetry sources into the handler. Every field is
// optional; endpoints with a nil source respond 404. Sources are called
// per request and must be safe for concurrent use.
type Options struct {
	// Snapshot supplies the registry state for /metrics and /snapshot.
	Snapshot func() obs.Snapshot
	// Spans supplies the merged span forest for /spans (and is attached
	// to /snapshot output).
	Spans func() []obs.SpanNode
	// Stats supplies live streaming estimators, rendered as Prometheus
	// summaries on /metrics and attached to /snapshot output.
	Stats func() []obs.StreamStatSnapshot
	// Flight writes the flight-recorder dump for /flight (wire it to
	// trace.WriteFlight).
	Flight func(io.Writer) error
	// Ready gates /readyz: nil means always ready (the endpoint still
	// answers 200, so probes work on commands that never gate), false
	// answers 503. Commands flip it once their telemetry sources are
	// publishing (see Live.SetReady).
	Ready func() bool
	// Shards supplies the fleet progress view for /shards — typically a
	// closure scanning a sidecar directory into a sidecar.Fleet. The
	// value is rendered as JSON; an error answers 500.
	Shards func() (any, error)
}

// getOnly rejects write methods: the telemetry surface is pull-only,
// so anything but GET/HEAD answers 405 with an Allow header.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// Handler returns the telemetry mux (exported separately from Serve for
// tests and for embedding into an existing server).
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, r *http.Request) {
		if opts.Snapshot == nil && opts.Stats == nil {
			http.NotFound(w, r)
			return
		}
		var snap obs.Snapshot
		if opts.Snapshot != nil {
			snap = opts.Snapshot()
		}
		if opts.Stats != nil {
			snap.Stats = opts.Stats()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, snap)
	}))
	mux.HandleFunc("/snapshot", getOnly(func(w http.ResponseWriter, r *http.Request) {
		if opts.Snapshot == nil {
			http.NotFound(w, r)
			return
		}
		snap := opts.Snapshot()
		if opts.Spans != nil {
			snap.Spans = opts.Spans()
		}
		if opts.Stats != nil {
			snap.Stats = opts.Stats()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(snap)
	}))
	mux.HandleFunc("/spans", getOnly(func(w http.ResponseWriter, r *http.Request) {
		if opts.Spans == nil {
			http.NotFound(w, r)
			return
		}
		spans := opts.Spans()
		switch format := r.URL.Query().Get("format"); format {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			enc.Encode(spans)
			return
		case "", "text":
			// fall through to the text summary
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want text or json)", format), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		obs.WriteSpanSummary(w, spans)
	}))
	mux.HandleFunc("/flight", getOnly(func(w http.ResponseWriter, r *http.Request) {
		if opts.Flight == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := opts.Flight(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
	mux.HandleFunc("/healthz", getOnly(func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process answers, so it is alive.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	}))
	mux.HandleFunc("/readyz", getOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil && !opts.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "not ready\n")
			return
		}
		io.WriteString(w, "ready\n")
	}))
	mux.HandleFunc("/shards", getOnly(func(w http.ResponseWriter, r *http.Request) {
		if opts.Shards == nil {
			http.NotFound(w, r)
			return
		}
		fleet, err := opts.Shards()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(fleet)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving the telemetry handler on addr (":0" picks a free
// port) in a background goroutine and returns immediately.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(opts)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// WriteMetrics renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as themselves, registry
// histograms as cumulative-bucket histograms, stream stats as
// summaries with quantile labels.
func WriteMetrics(w io.Writer, snap obs.Snapshot) error {
	var b strings.Builder
	typeWritten := map[string]bool{}
	family := func(name, kind string) string {
		n := sanitizeName(name)
		if !typeWritten[n] {
			typeWritten[n] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", n, kind)
		}
		return n
	}
	for _, c := range snap.Counters {
		n := family(c.Name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", n, renderLabels(c.Labels, "", 0), c.Value)
	}
	for _, g := range snap.Gauges {
		n := family(g.Name, "gauge")
		fmt.Fprintf(&b, "%s%s %s\n", n, renderLabels(g.Labels, "", 0), formatFloat(g.Value))
	}
	for _, h := range snap.Histograms {
		n := family(h.Name, "histogram")
		var cum uint64
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket%s %d\n", n, renderLabels(h.Labels, "le", bk.UpperBound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", n, renderLabels(h.Labels, "le", math.Inf(1)), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %s\n", n, renderLabels(h.Labels, "", 0), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", n, renderLabels(h.Labels, "", 0), h.Count)
	}
	for _, s := range snap.Stats {
		n := family(s.Name, "summary")
		for _, q := range []struct {
			q float64
			v float64
		}{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}} {
			fmt.Fprintf(&b, "%s%s %s\n", n, renderLabels(nil, "quantile", q.q), formatFloat(q.v))
		}
		fmt.Fprintf(&b, "%s_sum %s\n", n, formatFloat(s.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sanitizeName maps a metric name into the Prometheus character set
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(name string) string {
	ok := func(i int, r rune) bool {
		return r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
	}
	clean := true
	for i, r := range name {
		if !ok(i, r) {
			clean = false
			break
		}
	}
	if clean && name != "" {
		return name
	}
	var b strings.Builder
	for i, r := range name {
		if ok(i, r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// renderLabels renders a label set, optionally with one extra
// float-valued label (le/quantile) appended.
func renderLabels(labels []obs.Label, extraKey string, extraVal float64) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizeName(l.Key), escapeLabel(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, formatFloat(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects (+Inf, -Inf,
// NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return fmt.Sprintf("%g", v)
	}
}
