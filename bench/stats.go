package bench

import (
	"math"
	"math/rand/v2"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count). It panics on an empty slice: every caller has samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones an
// outside script computes from the same values. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and false when fewer than minBeyond samples lie beyond it — a
// tail percentile over too few samples is one outlier, not a tail.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// bootstrapRatioCI returns a 95% percentile-bootstrap interval for
// median(head)/median(base), resampling both sides with a PCG stream
// seeded by seed, so the interval is reproducible.
func bootstrapRatioCI(base, head []float64, seed uint64, iters int) (lo, hi float64) {
	r := rand.New(rand.NewPCG(seed, 0x6d6c62656e6368))
	ratios := make([]float64, iters)
	b := make([]float64, len(base))
	h := make([]float64, len(head))
	for it := range ratios {
		for i := range b {
			b[i] = base[r.IntN(len(base))]
		}
		for i := range h {
			h[i] = head[r.IntN(len(head))]
		}
		ratios[it] = median(h) / median(b)
	}
	sort.Float64s(ratios)
	return ratios[int(0.025*float64(iters))], ratios[int(math.Ceil(0.975*float64(iters)))-1]
}
