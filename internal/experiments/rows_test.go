package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunRowsLowestErrorWins injects failures at rows 3 and 7. Whatever
// the worker count, the runner must return row 3's error and start no
// row once the failure has been seen. Healthy rows above 3 stay in
// flight until row 3's progress line arrives, which the runner releases
// only after it has recorded the failure; a worker that finishes such a
// row must then stop. So each worker runs at most one row above 3, and
// the rows that started are a prefix of at most W+3 rows.
func TestRunRowsLowestErrorWins(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 4, 16} {
		seen := make(chan struct{})
		var (
			mu      sync.Mutex
			started []int
		)
		opt := Options{Workers: workers, Progress: func(line string) {
			if line == "row 3 failing" {
				close(seen)
			}
		}}
		_, err := runRows(opt, n, func(i int, ro Options) (int, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			switch {
			case i == 3 || i == 7:
				ro.log("row %d failing", i)
				return 0, fmt.Errorf("row %d failed", i)
			case i > 3:
				<-seen
			}
			return i, nil
		})
		if err == nil || err.Error() != "row 3 failed" {
			t.Fatalf("workers=%d: err = %v, want row 3's", workers, err)
		}
		sort.Ints(started)
		if len(started) < 4 || len(started) > workers+3 {
			t.Fatalf("workers=%d: started rows %v, want 0..3 and at most %d rows", workers, started, workers+3)
		}
		for k, i := range started {
			if i != k {
				t.Fatalf("workers=%d: started rows %v are not a prefix of the grid", workers, started)
			}
		}
	}
	// Row 7 failing first must not win either.
	for _, workers := range []int{4, 16} {
		row7 := make(chan struct{})
		_, err := runRows(Options{Workers: workers}, n, func(i int, _ Options) (int, error) {
			switch i {
			case 3:
				<-row7
				return 0, errors.New("row 3 failed")
			case 7:
				defer close(row7)
				return 0, errors.New("row 7 failed")
			}
			return i, nil
		})
		if err == nil || err.Error() != "row 3 failed" {
			t.Fatalf("workers=%d, row 7 failing first: err = %v, want row 3's", workers, err)
		}
	}
}

// TestRunRowsSequentialAtOneWorker: with Workers 1 the rows run one
// after another, in index order.
func TestRunRowsSequentialAtOneWorker(t *testing.T) {
	var inFlight atomic.Int32
	var overlapped atomic.Bool
	var order []int
	res, err := runRows(Options{Workers: 1}, 12, func(i int, _ Options) (int, error) {
		if inFlight.Add(1) > 1 {
			overlapped.Store(true)
		}
		defer inFlight.Add(-1)
		order = append(order, i)
		time.Sleep(time.Millisecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("two rows ran at once")
	}
	for i := range res {
		if order[i] != i || res[i] != i*i {
			t.Fatalf("order %v, results %v", order, res)
		}
	}
}

// TestRunRowsReleasesInRowOrder runs rows that finish in reverse order
// and checks that the caller's Progress, Spans and Metrics sinks see
// each row's side effects in row order, from the calling goroutine's
// point of view exactly as a sequential run records them.
func TestRunRowsReleasesInRowOrder(t *testing.T) {
	const n = 8
	var lines []string
	opt := Options{
		Workers:  4,
		Progress: func(s string) { lines = append(lines, s) },
		Spans:    obs.NewTracer(),
		Metrics:  obs.NewSimMetrics(),
	}
	fig := opt.Spans.Start("fig")
	res, err := runRows(opt, n, func(i int, ro Options) (string, error) {
		if ro.Spans == opt.Spans || ro.Metrics == opt.Metrics {
			return "", fmt.Errorf("row %d got the caller's sinks", i)
		}
		time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
		span := ro.Spans.Start("cell")
		ro.Metrics.Registry().Counter("rows_total").Inc()
		ro.Metrics.Registry().Gauge("last_row").Set(float64(i))
		span.End()
		ro.log("row %d", i)
		ro.log("row %d again", i)
		return fmt.Sprint(i), nil
	})
	fig.End()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("row %d", i), fmt.Sprintf("row %d again", i))
		if res[i] != fmt.Sprint(i) {
			t.Fatalf("results %v not stored by row index", res)
		}
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("progress lines %q, want %q", lines, want)
	}
	tree := spanShape(opt.Spans.Snapshot())
	wantTree := []obs.SpanNode{{Name: "fig", Count: 1, Children: []obs.SpanNode{{Name: "cell", Count: n}}}}
	if !reflect.DeepEqual(tree, wantTree) {
		t.Fatalf("span tree %+v, want %+v", tree, wantTree)
	}
	reg := opt.Metrics.Registry()
	if got := reg.Counter("rows_total").Value(); got != n {
		t.Fatalf("rows_total = %d, want %d", got, n)
	}
	// Gauges keep the last value merged: the last row's.
	if got := reg.Gauge("last_row").Value(); got != n-1 {
		t.Fatalf("last_row = %v, want %d", got, n-1)
	}
}
