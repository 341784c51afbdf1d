package obs

import (
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// StreamStat is a concurrent streaming estimator for live exposition:
// campaign workers publish per-trial observations into it while an HTTP
// handler snapshots it mid-run. It is a stats.Sketch behind a mutex —
// the same sketch the streaming campaign sink persists in checkpoints —
// whose exact moments give the mean, std and the Student-t confidence
// interval of the mean (the machinery the paper's Welch significance
// tests build on) and whose log buckets give the quantiles. Non-finite
// observations are rejected, as the sketch rejects them. The lock is
// taken once per observation (per trial, not per event), so contention
// is negligible next to trial cost.
//
// Unlike the Registry instruments, StreamStat is safe for concurrent
// use — it exists precisely so a run can be watched from outside while
// worker shards are still private.
type StreamStat struct {
	mu sync.Mutex
	sk *stats.Sketch
}

// NewStreamStat returns an empty estimator.
func NewStreamStat() *StreamStat {
	return &StreamStat{sk: stats.NewSketch()}
}

// Observe records one observation. Safe for concurrent use.
func (s *StreamStat) Observe(v float64) {
	s.mu.Lock()
	s.sk.Observe(v)
	s.mu.Unlock()
}

// Count returns the number of observations recorded so far.
func (s *StreamStat) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.sk.N())
}

// StreamStatSnapshot is a point-in-time copy of a StreamStat. CI95 is
// the half-width of the two-sided 95 % confidence interval of the mean
// (0 until two observations exist); quantiles are bucket-interpolated.
type StreamStatSnapshot struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	CI95  float64 `json:"ci95"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot copies the current state under the lock. name labels the
// snapshot for exposition.
func (s *StreamStat) Snapshot(name string) StreamStatSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.sk.N()
	out := StreamStatSnapshot{
		Name:  name,
		Count: uint64(n),
		Sum:   s.sk.Mean() * float64(n),
		Mean:  s.sk.Mean(),
		Std:   s.sk.Std(),
		Min:   s.sk.Min(),
		Max:   s.sk.Max(),
	}
	if ci, err := s.sk.CI(0.95); err == nil && !math.IsNaN(ci) {
		out.CI95 = ci
	}
	if n > 0 {
		out.P50, out.P90, out.P99 = s.sk.Quantile(0.5), s.sk.Quantile(0.9), s.sk.Quantile(0.99)
	}
	return out
}

// StreamSet is a named collection of StreamStats — the live half of a
// run's telemetry, safe for concurrent registration, observation, and
// snapshotting.
type StreamSet struct {
	mu    sync.Mutex
	stats map[string]*StreamStat
}

// NewStreamSet returns an empty set.
func NewStreamSet() *StreamSet {
	return &StreamSet{stats: map[string]*StreamStat{}}
}

// Stat returns (registering on first use) the named estimator. Callers
// cache the pointer and observe through it directly.
func (s *StreamSet) Stat(name string) *StreamStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stats[name]
	if !ok {
		st = NewStreamStat()
		s.stats[name] = st
	}
	return st
}

// Snapshots returns a snapshot of every estimator, sorted by name.
func (s *StreamSet) Snapshots() []StreamStatSnapshot {
	s.mu.Lock()
	names := make([]string, 0, len(s.stats))
	for name := range s.stats {
		names = append(names, name)
	}
	sts := make([]*StreamStat, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		sts = append(sts, s.stats[name])
	}
	s.mu.Unlock()
	out := make([]StreamStatSnapshot, len(names))
	for i, name := range names {
		out[i] = sts[i].Snapshot(name)
	}
	return out
}
