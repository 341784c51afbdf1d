package bench

import (
	"math"
	"sync"
	"time"
)

// calRefS is the calibration kernel's reference time. Scaling a rep's
// times by calRefS / (the kernel's time around the rep) expresses them at
// the machine speed at which the kernel takes calRefS, about the quiet
// speed of the 2-vCPU Intel Xeon of the baseline. Over the baseline's
// reps, measured while other tenants slowed that machine, the kernel took
// 0.021–0.033 s (5th percentile to median).
const calRefS = 0.02

// The kernel's working sets, one per worker: calTable fits in a core's
// L1 cache; calMem (16 MiB of uint64) does not fit in its 4 MiB L2, so
// it lives in the L3 cache and memory that other tenants share.
const calMemLen = 1 << 21

var (
	calTable [workers][1 << 12]float64
	calMem   [workers][]uint64
	calInit  sync.Once
)

// calKernel is fixed work of two kinds, which other tenants of a shared
// machine slow differently: integer and floating-point work on L1-cache
// data, as in the optimizer sweeps, then random reads and writes across
// calMem, as in the campaigns' allocation and garbage collection. In an
// hour when other tenants slowed the machine 2x, timing only the first
// kind left the run-to-run spread of the workloads' wall times at 12–19%;
// timing both, at 3–9%. It is code of the benchmark itself, so no change
// to the system under test moves it.
func calKernel(w int) {
	t := &calTable[w]
	x := uint64(w+1)*0x9e3779b97f4a7c15 | 1
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11) / (1 << 53)
		j := x & (1<<12 - 1)
		t[j] += -math.Log1p(-u)
		t[(j*7)&(1<<12-1)] += t[j] * 1e-3
	}
	m := calMem[w]
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calMemLen - 1)
		m[j] ^= m[(j*7)&(calMemLen-1)] + x
	}
}

// calibrate runs the kernel on every worker at once, three times, and
// returns the fastest time in seconds: a measure of how fast the machine
// runs right now. Tiny runs, which check the harness rather than
// measure, skip the kernel and report the reference time.
func calibrate(tiny bool) float64 {
	if tiny {
		return calRefS
	}
	calInit.Do(func() {
		for w := range calMem {
			calMem[w] = make([]uint64, calMemLen)
			for i := range calMem[w] {
				calMem[w][i] = uint64(i)
			}
		}
	})
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				calKernel(w)
			}(w)
		}
		wg.Wait()
		best = min(best, time.Since(t).Seconds())
	}
	return best
}
