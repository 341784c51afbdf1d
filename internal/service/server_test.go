package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	_ "repro/internal/model/benoit"
	_ "repro/internal/model/daly"
	_ "repro/internal/model/dauwe"
	_ "repro/internal/model/di"
	_ "repro/internal/model/moody"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// testServer bundles a Server with an httptest listener; the whole
// suite drives the daemon black-box over HTTP.
type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return &testServer{srv: srv, ts: ts}
}

// post sends a JSON body and returns status, X-Cache, and body bytes.
func (h *testServer) post(t *testing.T, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(h.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// metricValue scrapes /metrics and sums every sample of family name
// (matching bare and labeled lines).
func (h *testServer) metricValue(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			total += v
		}
	}
	return total
}

// waitFor polls cond until true or the deadline, then fails.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const planD4Dauwe = `{"system":"D4","technique":"dauwe"}`

// TestPlanGoldenAcrossWorkers pins the acceptance criterion: /v1/plan
// bytes are identical across worker counts and across cache hit/miss,
// and match the checked-in golden file.
func TestPlanGoldenAcrossWorkers(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4, 16} {
		h := newTestServer(t, Config{Workers: workers})
		code, source, miss := h.post(t, "/v1/plan", planD4Dauwe)
		if code != http.StatusOK || source != "miss" {
			t.Fatalf("workers=%d first request: code=%d source=%q", workers, code, source)
		}
		code, source, hit := h.post(t, "/v1/plan", planD4Dauwe)
		if code != http.StatusOK || source != "hit" {
			t.Fatalf("workers=%d second request: code=%d source=%q", workers, code, source)
		}
		if !bytes.Equal(miss, hit) {
			t.Fatalf("workers=%d: cache hit bytes differ from miss bytes", workers)
		}
		bodies = append(bodies, miss)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("plan bytes differ between worker counts:\n%s\nvs\n%s", bodies[0], bodies[i])
		}
	}

	golden := filepath.Join("testdata", "plan_D4_dauwe.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, bodies[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(bodies[0], want) {
		t.Errorf("plan bytes drifted from golden:\ngot  %swant %s", bodies[0], want)
	}
}

// TestPlanCoalescing pins the other acceptance criterion: N concurrent
// identical requests cost exactly one sweep. The single pool slot is
// blocked while the herd arrives, so every request coalesces onto one
// call before any sweep can run.
func TestPlanCoalescing(t *testing.T) {
	const herd = 8
	h := newTestServer(t, Config{Slots: 1, Queue: 16})

	release := make(chan struct{})
	if err := h.srv.pool.submit(func() { <-release }); err != nil {
		t.Fatalf("blocker submit: %v", err)
	}

	var wg sync.WaitGroup
	codes := make([]int, herd)
	bodies := make([][]byte, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = h.post(t, "/v1/plan", planD4Dauwe)
		}(i)
	}
	// All 8 have joined the flight group once 8 cache misses are
	// counted; only then may the sweep start.
	waitFor(t, 10*time.Second, "herd to join", func() bool {
		return h.metricValue(t, "svc_cache_misses_total") == herd
	})
	close(release)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: code=%d body=%s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d bytes differ from request 0", i)
		}
	}
	if got := h.metricValue(t, "sweep_runs_total"); got != 1 {
		t.Errorf("sweep_runs_total = %v after %d concurrent identical requests, want exactly 1", got, herd)
	}
	if got := h.metricValue(t, "svc_coalesced_total"); got != herd-1 {
		t.Errorf("svc_coalesced_total = %v, want %d", got, herd-1)
	}
}

// TestPlanHerdWindow replays the one interleaving the flight group alone
// cannot coalesce, step by step: request B misses the cache; request A
// then leads, sweeps, caches and retires; only then does B join the
// flight group, as a new leader. B must serve A's cached bytes as a hit
// instead of running a second sweep.
func TestPlanHerdWindow(t *testing.T) {
	h := newTestServer(t, Config{})
	var req PlanRequest
	if err := json.Unmarshal([]byte(planD4Dauwe), &req); err != nil {
		t.Fatal(err)
	}
	sp, aerr := resolvePlan(req)
	if aerr != nil {
		t.Fatal(aerr)
	}
	key := sp.digest()

	if _, ok := h.srv.cached(key, "plan"); ok { // B misses
		t.Fatal("empty cache hit")
	}
	code, source, bodyA := h.post(t, "/v1/plan", planD4Dauwe) // A runs start to end
	if code != http.StatusOK || source != "miss" {
		t.Fatalf("request A: code=%d source=%q", code, source)
	}
	c, source := h.srv.joinFlight(key, "plan", func(ctx context.Context, _ *call) ([]byte, error) {
		return h.srv.computePlan(ctx, sp, key)
	}) // B joins
	bodyB, aerr := h.srv.await(context.Background(), key, c)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if source != "hit" || !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("request B: source=%q, bytes equal to A's: %v", source, bytes.Equal(bodyA, bodyB))
	}
	if got := h.metricValue(t, "sweep_runs_total"); got != 1 {
		t.Errorf("sweep_runs_total = %v, want exactly 1", got)
	}
	if hits, misses := h.metricValue(t, "svc_cache_hits_total"), h.metricValue(t, "svc_cache_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("cache hits/misses = %v/%v, want 1/1 (B's join is a hit)", hits, misses)
	}
}

// syncBuffer lets the test read the event log while the server's
// goroutines may still write to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *syncBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSweepRunsCountOnlySweeps: a closed-form plan is no sweep. A moody
// plan and a daly plan on a fresh server leave sweep_runs_total at 1 and
// one sweep_start/sweep_done pair in the event log.
func TestSweepRunsCountOnlySweeps(t *testing.T) {
	var log syncBuffer
	h := newTestServer(t, Config{Events: obs.NewEventLog(&log, "")})
	for _, technique := range []string{"moody", "daly"} {
		if code, _, body := h.post(t, "/v1/plan", `{"system":"D4","technique":"`+technique+`"}`); code != http.StatusOK {
			t.Fatalf("%s plan: code = %d body=%s", technique, code, body)
		}
	}
	if got := h.metricValue(t, "sweep_runs_total"); got != 1 {
		t.Errorf("sweep_runs_total = %v, want 1", got)
	}
	for _, event := range []string{"sweep_start", "sweep_done"} {
		if n := strings.Count(log.String(), `"msg":"`+event+`"`); n != 1 {
			t.Errorf("%d %s events, want 1:\n%s", n, event, log.String())
		}
	}
}

// fakeClock is an injectable cache clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	h := newTestServer(t, Config{CacheTTL: time.Minute, Now: clk.now})

	req := `{"system":"M","technique":"daly"}`
	_, source, first := h.post(t, "/v1/plan", req)
	if source != "miss" {
		t.Fatalf("first request source = %q, want miss", source)
	}
	_, source, _ = h.post(t, "/v1/plan", req)
	if source != "hit" {
		t.Fatalf("within TTL source = %q, want hit", source)
	}

	clk.advance(time.Minute + time.Second)
	_, source, again := h.post(t, "/v1/plan", req)
	if source != "miss" {
		t.Fatalf("past TTL source = %q, want miss (expired)", source)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("recomputed bytes differ from original (determinism broken)")
	}
	if got := h.metricValue(t, "svc_cache_expired_total"); got != 1 {
		t.Errorf("svc_cache_expired_total = %v, want 1", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	h := newTestServer(t, Config{CacheSize: 2, Now: clk.now})

	reqA := `{"system":"D1","technique":"daly"}`
	reqB := `{"system":"D2","technique":"daly"}`
	reqC := `{"system":"D3","technique":"daly"}`

	h.post(t, "/v1/plan", reqA)                                       // cache: A
	h.post(t, "/v1/plan", reqB)                                       // cache: B A
	if _, source, _ := h.post(t, "/v1/plan", reqA); source != "hit" { // cache: A B
		t.Fatalf("A should be cached, got %q", source)
	}
	h.post(t, "/v1/plan", reqC) // cache: C A — evicts LRU victim B
	if _, source, _ := h.post(t, "/v1/plan", reqA); source != "hit" {
		t.Errorf("A (recently used) evicted, source %q", source)
	}
	if _, source, _ := h.post(t, "/v1/plan", reqB); source != "miss" {
		t.Errorf("B should have been evicted, source %q", source)
	}
	if got := h.metricValue(t, "svc_cache_evictions_total"); got < 1 {
		t.Errorf("svc_cache_evictions_total = %v, want >= 1", got)
	}
}

// slowPlan is a deliberately large dauwe sweep on the 4-level B system
// (the largest grid the limits allow, ~4.5e6 candidates): slow enough
// that a short deadline always lands mid-sweep. The branch-and-bound
// still visits every candidate once to order its cells, so the sweep
// takes about three times the deadline on a 2-vCPU Xeon.
const slowPlan = `{"system":"B","technique":"dauwe",
	"grid":{"tau0_points":1024,"count_vals":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]},
	"timeout_ms":40}`

// TestDeadlineCancellation: a slow sweep with a short per-request
// deadline answers 503, the canceled sweep must abort promptly (no
// pool slot held, no goroutine leak), and nothing may be cached.
func TestDeadlineCancellation(t *testing.T) {
	h := newTestServer(t, Config{})
	// Warm up the connection pool and server goroutines, then take the
	// leak baseline.
	h.post(t, "/v1/plan", `{"system":"M","technique":"daly"}`)
	http.DefaultClient.CloseIdleConnections()
	runtime.GC()
	base := runtime.NumGoroutine()

	start := time.Now()
	code, _, body := h.post(t, "/v1/plan", slowPlan)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d body=%s, want 503", code, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("503 took %v, want prompt deadline response", elapsed)
	}
	// The abandoned sweep is canceled when its last waiter leaves; the
	// pool slot must free up quickly.
	waitFor(t, 5*time.Second, "pool to go idle", func() bool {
		return h.srv.pool.depth() == 0
	})
	if n := h.srv.cache.len(); n != 1 { // the warm-up entry only
		t.Errorf("cache has %d entries after canceled sweep, want 1 (no partial write)", n)
	}
	if got := h.metricValue(t, "svc_deadline_total"); got != 1 {
		t.Errorf("svc_deadline_total = %v, want 1", got)
	}
	// goleak-style final count: everything the request spawned must be
	// gone (pool workers are still running; they existed at base-time
	// too only for previous servers, so allow slack of the one slot).
	waitFor(t, 5*time.Second, "goroutines to settle", func() bool {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
}

// TestGracefulDrain: draining completes the in-flight request, rejects
// new ones with 503 + Retry-After, and Drain returns once idle.
func TestGracefulDrain(t *testing.T) {
	h := newTestServer(t, Config{Slots: 1})

	inFlight := `{"system":"B","technique":"dauwe",
		"grid":{"tau0_points":256,"count_vals":[1,2,3,4,5,6,7,8]},
		"timeout_ms":60000}`
	// The route enters the gate before the handler reads the body, so
	// the request stays in flight until the test sends its body: the
	// drain checks below see it in flight however loaded the machine.
	bodyR, bodyW := io.Pipe()
	defer bodyW.Close() // a failed check must not leave the request hanging
	var wg sync.WaitGroup
	var code int
	var body []byte
	var postErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(h.ts.URL+"/v1/plan", "application/json", bodyR)
		if err != nil {
			postErr = err
			return
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		body, postErr = io.ReadAll(resp.Body)
	}()
	waitFor(t, 5*time.Second, "request to be in flight", func() bool {
		h.srv.gate.mu.Lock()
		defer h.srv.gate.mu.Unlock()
		return h.srv.gate.n > 0
	})

	h.srv.BeginDrain()

	resp, err := http.Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}

	newCode, _, _ := h.post(t, "/v1/plan", planD4Dauwe)
	if newCode != http.StatusServiceUnavailable {
		t.Errorf("new request during drain = %d, want 503", newCode)
	}

	if _, err := io.WriteString(bodyW, inFlight); err != nil {
		t.Fatal(err)
	}
	bodyW.Close()
	wg.Wait()
	if postErr != nil {
		t.Fatalf("in-flight request: %v", postErr)
	}
	if code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d body=%s, want 200", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestPredict(t *testing.T) {
	h := newTestServer(t, Config{})
	code, _, body := h.post(t, "/v1/predict",
		`{"system":"D4","technique":"daly","plan":{"tau0_minutes":10,"counts":[],"levels":[1]}}`)
	if code != http.StatusOK {
		t.Fatalf("code = %d body=%s", code, body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Predicted.ExpectedMinutes <= 1440 {
		t.Errorf("expected_minutes = %v, want > baseline 1440", resp.Predicted.ExpectedMinutes)
	}
	if resp.Predicted.Efficiency <= 0 || resp.Predicted.Efficiency >= 1 {
		t.Errorf("efficiency = %v, want (0,1)", resp.Predicted.Efficiency)
	}
}

// TestSimulateDeterministicAndCached: same request twice → hit with
// identical bytes; fresh servers at different worker counts produce
// the same bytes (campaign determinism).
func TestSimulateDeterministicAndCached(t *testing.T) {
	req := `{"system":"D4","technique":"dauwe","plan":{"tau0_minutes":10,"counts":[4],"levels":[1,2]},"trials":40,"seed":7}`
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		h := newTestServer(t, Config{Workers: workers})
		code, source, miss := h.post(t, "/v1/simulate", req)
		if code != http.StatusOK || source != "miss" {
			t.Fatalf("workers=%d: code=%d source=%q body=%s", workers, code, source, miss)
		}
		code, source, hit := h.post(t, "/v1/simulate", req)
		if code != http.StatusOK || source != "hit" {
			t.Fatalf("workers=%d repeat: code=%d source=%q", workers, code, source)
		}
		if !bytes.Equal(miss, hit) {
			t.Fatalf("workers=%d: simulate hit differs from miss", workers)
		}
		if got := h.metricValue(t, "sim_runs_total"); got != 1 {
			t.Errorf("workers=%d: sim_runs_total = %v, want 1", workers, got)
		}
		bodies = append(bodies, miss)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("simulate bytes differ across worker counts:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	var resp SimulateResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Completed != 40 || resp.Efficiency.N != 40 {
		t.Errorf("completed=%d n=%d, want 40", resp.Completed, resp.Efficiency.N)
	}
	if resp.EfficiencyCI95 <= 0 {
		t.Errorf("efficiency_ci95 = %v, want > 0", resp.EfficiencyCI95)
	}
	if resp.Predicted == nil {
		t.Errorf("predicted missing from simulate response")
	}
}

// TestSimulateStream: the streamed response carries progress records
// and a final result identical to the cached non-stream body.
func TestSimulateStream(t *testing.T) {
	h := newTestServer(t, Config{})
	req := `{"system":"D4","technique":"dauwe","plan":{"tau0_minutes":10,"counts":[4],"levels":[1,2]},"trials":30,"seed":3,"stream":true}`
	code, _, body := h.post(t, "/v1/simulate", req)
	if code != http.StatusOK {
		t.Fatalf("code = %d body=%s", code, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream had %d records, want >= 2 (progress + result):\n%s", len(lines), body)
	}
	var last streamRecord
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("final record: %v", err)
	}
	if last.Type != "result" {
		t.Fatalf("final record type = %q, want result", last.Type)
	}
	var first streamRecord
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Type != "progress" {
		t.Fatalf("first record = %s (err %v), want progress", lines[0], err)
	}

	// The cached plain response must byte-match the streamed result.
	plain := strings.Replace(req, `,"stream":true`, "", 1)
	_, source, plainBody := h.post(t, "/v1/simulate", plain)
	if source != "hit" {
		t.Fatalf("plain repeat source = %q, want hit", source)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, bytes.TrimSpace(plainBody)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(last.Result), compact.Bytes()) {
		t.Errorf("streamed result differs from cached body:\n%s\nvs\n%s", last.Result, compact.Bytes())
	}
}

func TestBatch(t *testing.T) {
	h := newTestServer(t, Config{})
	code, _, direct := h.post(t, "/v1/plan", `{"system":"M","technique":"daly"}`)
	if code != http.StatusOK {
		t.Fatalf("direct plan: %d", code)
	}
	code, _, body := h.post(t, "/v1/batch",
		`{"requests":[{"system":"M","technique":"daly"},{"system":"nope","technique":"daly"},{"system":"D4","technique":"daly"}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch code = %d body=%s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if want := bytes.TrimSuffix(direct, []byte("\n")); !bytes.Equal(resp.Results[0].Response, want) {
		t.Errorf("batch item 0 differs from direct /v1/plan:\n%s\nvs\n%s", resp.Results[0].Response, want)
	}
	if resp.Results[1].Status != http.StatusBadRequest || resp.Results[1].Error == "" {
		t.Errorf("batch item 1 = %+v, want a 400 error", resp.Results[1])
	}
	if resp.Results[2].Response == nil {
		t.Errorf("batch item 2 missing response: %+v", resp.Results[2])
	}
}

// TestRequestValidation is the table-driven error-path sweep for the
// decoder/validator: every row must answer 4xx with a JSON error body.
func TestRequestValidation(t *testing.T) {
	h := newTestServer(t, Config{MaxTrials: 1000})
	cases := []struct {
		name string
		path string
		body string
		code int
	}{
		{"malformed json", "/v1/plan", `{"system":`, 400},
		{"trailing data", "/v1/plan", `{"system":"D4","technique":"daly"} extra`, 400},
		{"unknown field", "/v1/plan", `{"system":"D4","technique":"daly","bogus":1}`, 400},
		{"missing technique", "/v1/plan", `{"system":"D4"}`, 400},
		{"unknown technique", "/v1/plan", `{"system":"D4","technique":"zeno"}`, 400},
		{"missing system", "/v1/plan", `{"technique":"daly"}`, 400},
		{"unknown system", "/v1/plan", `{"system":"X9","technique":"daly"}`, 400},
		{"both systems", "/v1/plan", `{"system":"D4","system_spec":{"mtbf_minutes":60,"baseline_minutes":100,"levels":[{"checkpoint_minutes":1,"restart_minutes":1,"severity_prob":1}]},"technique":"daly"}`, 400},
		{"negative mtbf override", "/v1/plan", `{"system":"D4","technique":"daly","mtbf_minutes":-5}`, 400},
		{"grid on closed form", "/v1/plan", `{"system":"D4","technique":"daly","grid":{"tau0_points":16}}`, 400},
		{"grid on benoit", "/v1/plan", `{"system":"D4","technique":"benoit","grid":{"tau0_points":16}}`, 400},
		{"tau0 points too big", "/v1/plan", `{"system":"D4","technique":"dauwe","grid":{"tau0_points":9999}}`, 400},
		{"count vals not ascending", "/v1/plan", `{"system":"D4","technique":"dauwe","grid":{"count_vals":[4,2]}}`, 400},
		{"count val out of range", "/v1/plan", `{"system":"D4","technique":"dauwe","grid":{"count_vals":[5000]}}`, 400},
		{"negative timeout", "/v1/plan", `{"system":"D4","technique":"daly","timeout_ms":-1}`, 400},
		{"bad spec prob sum", "/v1/plan", `{"system_spec":{"mtbf_minutes":60,"baseline_minutes":100,"levels":[{"checkpoint_minutes":1,"restart_minutes":1,"severity_prob":0.4}]},"technique":"daly"}`, 400},
		{"spec zero checkpoint", "/v1/plan", `{"system_spec":{"mtbf_minutes":60,"baseline_minutes":100,"levels":[{"checkpoint_minutes":0,"restart_minutes":1,"severity_prob":1}]},"technique":"daly"}`, 400},
		{"predict missing plan", "/v1/predict", `{"system":"D4","technique":"daly"}`, 400},
		{"predict invalid plan", "/v1/predict", `{"system":"D4","technique":"daly","plan":{"tau0_minutes":-1,"counts":[],"levels":[1]}}`, 400},
		{"predict level beyond system", "/v1/predict", `{"system":"D4","technique":"daly","plan":{"tau0_minutes":5,"counts":[2],"levels":[1,7]}}`, 400},
		{"simulate too many trials", "/v1/simulate", `{"system":"D4","technique":"daly","plan":{"tau0_minutes":5,"counts":[],"levels":[1]},"trials":5000}`, 400},
		{"simulate negative trials", "/v1/simulate", `{"system":"D4","technique":"daly","plan":{"tau0_minutes":5,"counts":[],"levels":[1]},"trials":-2}`, 400},
		{"simulate failure storm", "/v1/simulate", `{"system":"D4","technique":"daly","mtbf_minutes":1e-6,"plan":{"tau0_minutes":5,"counts":[],"levels":[1]},"trials":1}`, 400},
		{"batch empty", "/v1/batch", `{"requests":[]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := h.post(t, tc.path, tc.body)
			if code != tc.code {
				t.Fatalf("code = %d body=%s, want %d", code, body, tc.code)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body %s not a JSON error envelope (err %v)", body, err)
			}
		})
	}
}

// TestSimulateRejectsFailureStormBeforeQueueing: a scenario whose
// trials expect more than 10⁷ failure arrivals answers 400 with the
// simulator's reason, and no campaign starts.
func TestSimulateRejectsFailureStormBeforeQueueing(t *testing.T) {
	h := newTestServer(t, Config{})
	code, _, body := h.post(t, "/v1/simulate", `{"system":"D4","technique":"daly","mtbf_minutes":1e-6,`+
		`"plan":{"tau0_minutes":5,"counts":[],"levels":[1]},"trials":1,"stream":true}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "5.76e+11 failure arrivals, above the limit of 1e+07") {
		t.Fatalf("code = %d body=%s, want 400 naming 5.76e+11 and 1e+07 arrivals", code, body)
	}
	if got := h.metricValue(t, "sim_runs_total"); got != 0 {
		t.Errorf("sim_runs_total = %v, want 0", got)
	}
}

// TestCandidateCapOnlyOnSweeps: the search-space cap holds back sweeps
// alone, and counts only the level sets a technique sweeps. On a
// five-level system, under a dauwe grid whose five level prefixes hold
// 1024 × (1 + 64 + … + 64⁴) ≈ 1.7e10 candidates, requests that run no
// sweep answer 200: a prediction, a simulation of a given plan, and a
// closed-form plan. Moody sweeps one level set, 64 × 16⁴ ≈ 4.2e6
// candidates on its default grid, and answers 200 too.
func TestCandidateCapOnlyOnSweeps(t *testing.T) {
	h := newTestServer(t, Config{})
	const spec = `"system_spec":{"mtbf_minutes":60,"baseline_minutes":1440,"levels":[` +
		`{"checkpoint_minutes":0.1,"restart_minutes":0.1,"severity_prob":0.5},` +
		`{"checkpoint_minutes":0.5,"restart_minutes":0.5,"severity_prob":0.2},` +
		`{"checkpoint_minutes":1,"restart_minutes":1,"severity_prob":0.15},` +
		`{"checkpoint_minutes":5,"restart_minutes":5,"severity_prob":0.1},` +
		`{"checkpoint_minutes":20,"restart_minutes":20,"severity_prob":0.05}]}`
	const plan = `"plan":{"tau0_minutes":5,"counts":[1,1,1,1],"levels":[1,2,3,4,5]}`
	counts := make([]string, 64)
	for i := range counts {
		counts[i] = strconv.Itoa(i)
	}
	huge := `"grid":{"tau0_points":1024,"count_vals":[` + strings.Join(counts, ",") + `]}`
	for _, tc := range []struct {
		path, body string
		code       int
	}{
		{"/v1/predict", `{` + spec + `,"technique":"dauwe",` + plan + `}`, 200},
		{"/v1/simulate", `{` + spec + `,"technique":"dauwe",` + plan + `,"trials":10}`, 200},
		{"/v1/plan", `{` + spec + `,"technique":"daly"}`, 200},
		{"/v1/plan", `{` + spec + `,"technique":"dauwe",` + huge + `}`, 400},
		{"/v1/plan", `{` + spec + `,"technique":"moody"}`, 200},
	} {
		if code, _, body := h.post(t, tc.path, tc.body); code != tc.code {
			t.Errorf("%s %s: code = %d body=%s, want %d", tc.path, tc.body, code, body, tc.code)
		}
	}
	code, _, body := h.post(t, "/v1/batch", `{"requests":[{`+spec+`,"technique":"daly"},{`+spec+`,"technique":"dauwe",`+huge+`}]}`)
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil || len(resp.Results) != 2 {
		t.Fatalf("batch: code = %d body=%s (err %v)", code, body, err)
	}
	if resp.Results[0].Response == nil || resp.Results[1].Status != http.StatusBadRequest {
		t.Errorf("batch items = %+v, want daly answered and dauwe a 400", resp.Results)
	}
}

// TestSweepSettingsAcrossTechniques: every registered technique either
// sweeps, and then honours each of its sweep settings, or does not, and
// then /v1/plan refuses a grid for it.
func TestSweepSettingsAcrossTechniques(t *testing.T) {
	sys, err := system.ByName("D2")
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Config{})
	for _, name := range model.RegisteredNames() {
		t.Run(name, func(t *testing.T) {
			// settings returns a fresh instance and its sweep settings.
			settings := func() (model.Technique, *optimize.Settings) {
				tech, err := model.New(name)
				if err != nil {
					t.Fatal(err)
				}
				tu, ok := tech.(optimize.Tunable)
				if !ok {
					return tech, nil
				}
				return tech, tu.SweepSettings()
			}
			if _, st := settings(); st == nil {
				code, _, body := h.post(t, "/v1/plan", `{"system":"D2","technique":"`+name+`","grid":{"tau0_points":8}}`)
				if code != http.StatusBadRequest {
					t.Fatalf("grid on %s: code = %d body=%s, want 400", name, code, body)
				}
				return
			}
			candidates := func(coarse bool) uint64 {
				tech, st := settings()
				reg := obs.NewRegistry()
				st.SetSweepMetrics(reg)
				if coarse {
					st.SetSweepGrid(8, []int{0, 1})
				}
				if _, _, err := tech.Optimize(sys); err != nil {
					t.Fatal(err)
				}
				return reg.Snapshot().Counter("opt_candidates_total")
			}
			if def, coarse := candidates(false), candidates(true); !(coarse > 0 && coarse < def) {
				t.Errorf("opt_candidates_total: coarse grid %d, default grid %d", coarse, def)
			}

			var plans []pattern.Plan
			var preds []model.Prediction
			for _, workers := range []int{1, 4} {
				tech, st := settings()
				st.SetSweepGrid(16, nil)
				st.SetSweepWorkers(workers)
				plan, pred, err := tech.Optimize(sys)
				if err != nil {
					t.Fatal(err)
				}
				plans, preds = append(plans, plan), append(preds, pred)
			}
			if !planBitsEqual(plans[0], plans[1]) || preds[0] != preds[1] {
				t.Errorf("workers 1 vs 4: %v %v vs %v %v", plans[0], preds[0], plans[1], preds[1])
			}

			tech, st := settings()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			st.SetSweepContext(ctx)
			if _, _, err := tech.Optimize(sys); !errors.Is(err, context.Canceled) {
				t.Errorf("canceled context: err = %v, want context.Canceled", err)
			}

			tech, st = settings()
			tr := obs.NewTracer()
			st.SetSweepSpans(tr)
			if _, _, err := tech.Optimize(sys); err != nil {
				t.Fatal(err)
			}
			if !hasSpan(tr.Snapshot(), "sweep") {
				t.Errorf("no sweep span in %+v", tr.Snapshot())
			}
		})
	}
}

// planBitsEqual compares two plans bit for bit.
func planBitsEqual(a, b pattern.Plan) bool {
	return math.Float64bits(a.Tau0) == math.Float64bits(b.Tau0) &&
		slices.Equal(a.Counts, b.Counts) && slices.Equal(a.Levels, b.Levels)
}

// hasSpan reports whether the forest holds a span named name.
func hasSpan(forest []obs.SpanNode, name string) bool {
	for _, n := range forest {
		if n.Name == name || hasSpan(n.Children, name) {
			return true
		}
	}
	return false
}

func TestMethodNotAllowed(t *testing.T) {
	h := newTestServer(t, Config{})
	for _, path := range []string{"/v1/plan", "/v1/predict", "/v1/simulate", "/v1/batch"} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s Allow = %q, want POST", path, allow)
		}
	}
}

// TestQueueSaturation: with the slot blocked and a queue of 1, the
// second distinct request answers 429 + Retry-After.
func TestQueueSaturation(t *testing.T) {
	h := newTestServer(t, Config{Slots: 1, Queue: 1})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	if err := h.srv.pool.submit(func() { <-release }); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	// Fills the queue's single slot; runs after the blocker releases.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.post(t, "/v1/plan", `{"system":"D1","technique":"daly"}`)
	}()
	waitFor(t, 5*time.Second, "first job to queue", func() bool {
		return h.srv.pool.depth() == 2 // blocker + queued job
	})
	code, _, body := h.post(t, "/v1/plan", `{"system":"D2","technique":"daly"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated request code = %d body=%s, want 429", code, body)
	}
	close(release)
	wg.Wait()
	if got := h.metricValue(t, "svc_rejected_total"); got < 1 {
		t.Errorf("svc_rejected_total = %v, want >= 1", got)
	}
}

// TestTelemetrySurface: the obshttp endpoints ride along on the same
// handler.
func TestTelemetrySurface(t *testing.T) {
	h := newTestServer(t, Config{})
	h.post(t, "/v1/plan", `{"system":"M","technique":"daly"}`)
	for _, path := range []string{"/metrics", "/snapshot", "/healthz", "/readyz"} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	if got := h.metricValue(t, "svc_requests_total"); got < 1 {
		t.Errorf("svc_requests_total = %v, want >= 1", got)
	}
}
