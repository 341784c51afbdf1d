// Command mlckptd is the optimization-as-a-service daemon: a
// long-running HTTP/JSON server answering "optimal plan for this
// system under this technique" and "predicted/simulated makespan for
// this plan" at production request rates.
//
// Usage:
//
//	mlckptd [flags]
//
// Endpoints (all POST, JSON bodies — see the README "Serving" section
// for schemas):
//
//	/v1/plan      optimal plan for system×technique×grid
//	/v1/predict   model prediction for a given plan
//	/v1/simulate  campaign-backed estimate with CI (stream:true for
//	              chunked NDJSON progress)
//	/v1/batch     many plan requests in one call
//
// plus the telemetry surface on the same listener: /metrics, /snapshot,
// /healthz, /readyz, and pprof.
//
// Identical requests are cached (LRU+TTL) and coalesced, so a
// thundering herd of identical requests costs exactly one sweep; the
// bounded compute queue answers 429 + Retry-After when saturated.
// SIGTERM/SIGINT drains gracefully: in-flight requests complete, new
// ones are rejected, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sidecar"
	"repro/internal/service"

	_ "repro/internal/model/benoit"
	_ "repro/internal/model/daly"
	_ "repro/internal/model/dauwe"
	_ "repro/internal/model/di"
	_ "repro/internal/model/moody"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlckptd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mlckptd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve on")
	workers := fs.Int("workers", 0, "intra-job parallelism for sweeps and campaigns (0 = GOMAXPROCS)")
	slots := fs.Int("slots", 1, "jobs computed concurrently (each job is itself parallel)")
	queue := fs.Int("queue", 64, "bounded job queue; beyond it requests get 429 + Retry-After")
	cacheSize := fs.Int("cache-size", 1024, "response cache capacity (entries)")
	cacheTTL := fs.Duration("cache-ttl", 15*time.Minute, "response cache TTL")
	timeout := fs.Duration("timeout", 60*time.Second, "default per-request compute deadline")
	maxTrials := fs.Int("max-trials", 200000, "largest /v1/simulate campaign accepted")
	maxBatch := fs.Int("max-batch", 64, "largest /v1/batch fan-out accepted")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	logJSON := fs.Bool("log-json", false, "emit structured JSON request/lifecycle events to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *slots < 1 || *queue < 1 {
		return errors.New("-slots and -queue must be >= 1")
	}
	if *cacheSize < 1 {
		return errors.New("-cache-size must be >= 1")
	}

	var events *obs.EventLog
	if *logJSON {
		runID := sidecar.ConfigDigest("mlckptd", *listen,
			strconv.Itoa(os.Getpid()), strconv.FormatInt(time.Now().UnixNano(), 10))
		events = obs.NewEventLog(os.Stderr, runID)
	}

	srv := service.New(service.Config{
		Workers:   *workers,
		Slots:     *slots,
		Queue:     *queue,
		CacheSize: *cacheSize,
		CacheTTL:  *cacheTTL,
		Timeout:   *timeout,
		MaxTrials: *maxTrials,
		MaxBatch:  *maxBatch,
		Events:    events,
	})

	// Catch the signals before the listener exists: a supervisor may send
	// SIGTERM as soon as the serving line or /readyz appears, and the
	// default action would kill the process without draining.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "mlckptd: serving on http://%s\n", ln.Addr())
	events.Event("serve_start", "addr", ln.Addr().String())

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "mlckptd: draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.BeginDrain() // flip /readyz and reject new API work first
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	events.Event("serve_stop")
	fmt.Fprintln(stdout, "mlckptd: stopped")
	return nil
}
