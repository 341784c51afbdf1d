package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// rowSinks holds one row's privately recorded side effects: its Progress
// lines, its span tree and its telemetry. runRows hands them to the
// caller's sinks in row order.
type rowSinks struct {
	lines   []string
	spans   *obs.Tracer
	metrics *obs.SimMetrics
}

// options returns opt with every caller-owned sink that is not safe for
// concurrent use redirected into s. TrialDone, TrialStats and Events are
// already safe for concurrent use and stay live.
func (s *rowSinks) options(opt Options) Options {
	ro := opt
	if opt.Progress != nil {
		ro.Progress = func(line string) { s.lines = append(s.lines, line) }
	}
	if opt.Spans != nil {
		s.spans = obs.NewTracer()
		ro.Spans = s.spans
	}
	if opt.Metrics != nil {
		s.metrics = obs.NewSimMetrics()
		ro.Metrics = s.metrics
	}
	return ro
}

// release hands the row's side effects to the caller's sinks: its
// Progress lines in order, its spans under the caller's innermost open
// span (where Start would have nested them), its telemetry into
// opt.Metrics.
func (s *rowSinks) release(opt Options) error {
	for _, line := range s.lines {
		opt.Progress(line)
	}
	opt.Spans.Graft(s.spans)
	if opt.Metrics != nil {
		return opt.Metrics.Merge(s.metrics)
	}
	return nil
}

// runRows runs row(i, ro) for every i in [0, n) and returns the results
// by row index. It starts min(Workers, n) goroutines (Workers 0 means
// GOMAXPROCS) that take rows in index order from a shared counter, so
// up to that many rows are in flight; each row keeps opt.Workers for its
// own campaigns. ro is opt with its Progress, Spans and Metrics sinks
// made private to the row (see rowSinks); the calling goroutine releases
// each row's side effects into opt once every earlier row has finished,
// so the caller sees them exactly as a sequential run would produce
// them.
//
// After a row fails no new row starts, and the rows already running
// finish. Rows are taken in index order, so every row below a failing
// one has started and runs to completion: the error returned is the
// lowest-index failing row's, whatever the scheduling — the rule the
// campaign runner applies to trials. The rows up to and including that
// one are released first.
func runRows[T any](opt Options, n int, row func(i int, ro Options) (T, error)) ([]T, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	sinks := make([]rowSinks, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i], errs[i] = row(i, sinks[i].options(opt))
				if errs[i] != nil {
					failed.Store(true)
				}
				close(done[i])
			}
		}()
	}
	defer wg.Wait()
	// A row that never started lies above a failed one, and the loop
	// returns at the failed row before waiting for it.
	for i := range out {
		<-done[i]
		if err := sinks[i].release(opt); err != nil {
			failed.Store(true)
			return nil, err
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}
