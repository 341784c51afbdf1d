package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// log10Index is the expression bucketIndex computed before the step
// table replaced it; on amd64, where the table was generated, the two
// must agree at every float64.
func log10Index(v float64) int {
	if v <= BucketLo {
		return 0
	}
	if v > BucketHi {
		return logBuckets + 1
	}
	return min(1+int(math.Floor(math.Log10(v/BucketLo)*BucketsPerDecade)), logBuckets)
}

// stepIndex is the step table's definition, by binary search: one plus
// the steps at or below v, inside (BucketLo, BucketHi].
func stepIndex(v float64) int {
	if v <= BucketLo {
		return 0
	}
	if v > BucketHi {
		return logBuckets + 1
	}
	j, found := slices.BinarySearch(bucketSteps[:], math.Float64bits(v))
	if found {
		j++
	}
	return 1 + j
}

// indexMismatch describes how bucketIndex(v) disagrees with the table's
// step function or, on amd64, with the Log10 expression; "" if it agrees.
func indexMismatch(v float64) string {
	got := bucketIndex(v)
	if want := stepIndex(v); got != want {
		return fmt.Sprintf("bucketIndex(%v) [%#x] = %d, the step table says %d", v, math.Float64bits(v), got, want)
	}
	if runtime.GOARCH == "amd64" {
		if want := log10Index(v); got != want {
			return fmt.Sprintf("bucketIndex(%v) [%#x] = %d, the Log10 expression says %d", v, math.Float64bits(v), got, want)
		}
	}
	return ""
}

func TestBucketStepsMatchLog10(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the step table was generated with amd64's math.Log10")
	}
	if n := int(math.Ceil(float64(math.Log10(BucketHi/BucketLo)*BucketsPerDecade) - 1e-9)); n != logBuckets {
		t.Fatalf("the scheme's constants give %d buckets, the table %d", n, logBuckets)
	}
	// Regenerate: the smallest bit pattern in (BucketLo, BucketHi] whose
	// Log10 index is at least k, by bisection (the index never falls as
	// the value grows).
	lo, hi := math.Float64bits(BucketLo)+1, math.Float64bits(BucketHi)+1
	for k := 2; k <= logBuckets; k++ {
		a, b := lo, hi
		for a < b {
			m := a + (b-a)/2
			if log10Index(math.Float64frombits(m)) >= k {
				b = m
			} else {
				a = m + 1
			}
		}
		if a != bucketSteps[k-2] {
			t.Errorf("step into bucket %d: Log10 gives %#x (%v), the table %#x (%v)",
				k, a, math.Float64frombits(a), bucketSteps[k-2], math.Float64frombits(bucketSteps[k-2]))
		}
	}
}

func TestBucketIndexNearStepsAndQuarters(t *testing.T) {
	const span = 1 << 12 // ulps on each side
	var centers []uint64
	centers = append(centers, bucketSteps[:]...)
	for q := range quarters {
		centers = append(centers, (quarterLo+uint64(q))<<quarterShift)
	}
	centers = append(centers, math.Float64bits(BucketLo), math.Float64bits(BucketHi))
	for _, c := range centers {
		for u := c - span; u != c+span+1; u++ {
			if msg := indexMismatch(math.Float64frombits(u)); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) {
			if msg := indexMismatch(v); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	// The range the campaigns use: efficiencies in (0, 1], wall times in
	// minutes.
	for i := 0; i < 200_000; i++ {
		if msg := indexMismatch(math.Ldexp(1+r.Float64(), r.IntN(140)-100)); msg != "" {
			t.Fatal(msg)
		}
	}
}

func FuzzBucketIndex(f *testing.F) {
	for _, u := range bucketSteps {
		f.Add(u)
		f.Add(u - 1)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -1, BucketLo, BucketHi, 1, 0.5, 600,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		// bucketIndex maps finite values; Inf is checked too, NaN is
		// outside its domain (every caller rejects it first).
		if v := math.Float64frombits(u); !math.IsNaN(v) {
			if msg := indexMismatch(v); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// refBuckets is the model LogBuckets is checked against: the full count
// array, walked whole.
type refBuckets [logBuckets + 2]uint64

func (r *refBuckets) sparse() []Bucket {
	var out []Bucket
	for i, c := range r {
		if c != 0 {
			out = append(out, Bucket{I: i, C: c})
		}
	}
	return out
}

func (r *refBuckets) total() uint64 {
	var n uint64
	for _, c := range r {
		n += c
	}
	return n
}

// quantile is Quantile's walk over every bucket.
func (r *refBuckets) quantile(q float64, n uint64, lo, hi float64) float64 {
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	target := max(q*float64(n), 1)
	var cum float64
	for i, c := range r {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= target {
			return min(max(interp(i, (target-cum)/float64(c), hi), lo), hi)
		}
		cum += float64(c)
	}
	return hi
}

// TestLogBucketsMatchFullArrayModel runs random Add, Merge, Reset,
// Restore, Sparse and Quantile sequences on three LogBuckets and on the
// full-array model, and requires the same counts, sparse bytes and
// quantile bits after every step, with every non-zero count inside the
// touched range.
func TestLogBucketsMatchFullArrayModel(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	value := func() float64 {
		switch r.IntN(6) {
		case 0: // anywhere in the scheme, under- and overflow included
			return math.Pow(10, -12+r.Float64()*27)
		case 1:
			return -r.Float64()
		case 2:
			return 0
		case 3: // a step, or the float below one
			return math.Float64frombits(bucketSteps[r.IntN(len(bucketSteps))] - uint64(r.IntN(2)))
		default: // a narrow cluster, as a campaign's efficiencies are
			return 0.8 + 0.1*r.Float64()
		}
	}
	var bs [3]LogBuckets
	var ref [3]refBuckets
	for step := 0; step < 20000; step++ {
		k := r.IntN(3)
		b, m := &bs[k], &ref[k]
		switch op := r.IntN(20); {
		case op < 12:
			v := value()
			b.Add(v)
			m[bucketIndex(v)]++
		case op < 15:
			o := r.IntN(3)
			b.Merge(&bs[o])
			if o != k {
				for i, c := range ref[o] {
					m[i] += c
				}
			}
		case op < 16:
			b.Reset()
			*m = refBuckets{}
			if b.lo < b.hi {
				t.Fatalf("step %d: Reset left the touched range [%d,%d)", step, b.lo, b.hi)
			}
		case op < 17:
			// Restore from the model's buckets, shuffled, with a zero
			// count that may widen the touched range.
			sp := m.sparse()
			r.Shuffle(len(sp), func(i, j int) { sp[i], sp[j] = sp[j], sp[i] })
			sp = append(sp, Bucket{I: r.IntN(logBuckets + 2)})
			if err := b.Restore(sp, m.total()); err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
		default:
			n := m.total()
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1, r.Float64()} {
				got, want := b.Quantile(q, n, 1e-10, 1e13), m.quantile(q, n, 1e-10, 1e13)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("step %d: Quantile(%v) = %v, model %v", step, q, got, want)
				}
			}
		}
		got := make([]uint64, logBuckets+2)
		copy(got, b.counts)
		if !slices.Equal(got, m[:]) {
			t.Fatalf("step %d: counts differ from the model", step)
		}
		for i, c := range got {
			if c != 0 && (i < b.lo || i >= b.hi) {
				t.Fatalf("step %d: bucket %d holds %d outside the touched range [%d,%d)", step, i, c, b.lo, b.hi)
			}
		}
		gotJSON, _ := json.Marshal(b.Sparse())
		wantJSON, _ := json.Marshal(m.sparse())
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("step %d: Sparse %s, model %s", step, gotJSON, wantJSON)
		}
	}
}

// TestLogBucketsRestoreRejects pins Restore's checks, the overflow of a
// count sum included.
func TestLogBucketsRestoreRejects(t *testing.T) {
	var b LogBuckets
	for name, c := range map[string]struct {
		bs []Bucket
		n  uint64
	}{
		"no buckets":     {nil, 1},
		"index below":    {[]Bucket{{I: -1, C: 1}}, 1},
		"index above":    {[]Bucket{{I: logBuckets + 2, C: 1}}, 1},
		"sum mismatch":   {[]Bucket{{I: 3, C: 1}}, 2},
		"sum overflows":  {[]Bucket{{I: 3, C: 1 << 63}, {I: 4, C: 1 << 63}}, 0},
		"sum overflows2": {[]Bucket{{I: 3, C: math.MaxUint64}, {I: 4, C: 2}}, 1},
	} {
		if err := b.Restore(c.bs, c.n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := b.Restore([]Bucket{{I: 5, C: 2}, {I: 2, C: 1}}, 3); err != nil {
		t.Fatal(err)
	}
	if want := []Bucket{{I: 2, C: 1}, {I: 5, C: 2}}; !reflect.DeepEqual(b.Sparse(), want) {
		t.Errorf("restored %v, want %v", b.Sparse(), want)
	}
}
