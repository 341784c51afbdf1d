package obs

import (
	"math"
	"sync"
	"testing"
)

func TestStreamStatSnapshot(t *testing.T) {
	s := NewStreamStat()
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	snap := s.Snapshot("makespan")
	if snap.Name != "makespan" || snap.Count != 100 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Mean != 50.5 {
		t.Errorf("mean = %g, want 50.5", snap.Mean)
	}
	if snap.Min != 1 || snap.Max != 100 {
		t.Errorf("min/max = %g/%g", snap.Min, snap.Max)
	}
	if math.Abs(snap.Sum-5050) > 1e-9 {
		t.Errorf("sum = %g, want 5050", snap.Sum)
	}
	if snap.CI95 <= 0 {
		t.Errorf("ci95 = %g, want > 0", snap.CI95)
	}
	// Log-bucket quantiles are approximate: each bucket spans a factor
	// of 10^(1/8) ≈ 1.334, and interpolation within the bucket keeps
	// these estimates inside the windows below.
	if snap.P50 < 40 || snap.P50 > 60 {
		t.Errorf("p50 = %g, want ≈50", snap.P50)
	}
	if snap.P99 < 90 || snap.P99 > 110 {
		t.Errorf("p99 = %g, want ≈99", snap.P99)
	}
	if snap.P50 > snap.P90 || snap.P90 > snap.P99 {
		t.Errorf("quantiles not monotone: %g %g %g", snap.P50, snap.P90, snap.P99)
	}
}

func TestStreamStatEmpty(t *testing.T) {
	snap := NewStreamStat().Snapshot("empty")
	if snap.Count != 0 || snap.CI95 != 0 || snap.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
}

func TestStreamStatConcurrent(t *testing.T) {
	s := NewStreamStat()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(1.0)
			}
		}()
	}
	// Concurrent mid-run snapshots must be safe and internally coherent.
	for i := 0; i < 50; i++ {
		snap := s.Snapshot("live")
		if snap.Count > 0 && snap.Mean != 1.0 {
			t.Fatalf("mid-run mean = %g at count %d", snap.Mean, snap.Count)
		}
	}
	wg.Wait()
	if got := s.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestStreamSet(t *testing.T) {
	set := NewStreamSet()
	set.Stat("zeta").Observe(3)
	set.Stat("alpha").Observe(1)
	set.Stat("alpha").Observe(2)
	if set.Stat("alpha") != set.Stat("alpha") {
		t.Fatal("Stat did not return the cached estimator")
	}
	snaps := set.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "alpha" || snaps[1].Name != "zeta" {
		t.Fatalf("snapshots = %+v", snaps)
	}
	if snaps[0].Count != 2 || snaps[1].Count != 1 {
		t.Fatalf("counts = %d, %d", snaps[0].Count, snaps[1].Count)
	}
}
