package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestSketchMomentsMatchSummarize(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vals := make([]float64, 1000)
	var sample Sample
	sk := NewSketch()
	for i := range vals {
		v := 0.2 + 0.6*r.Float64()
		vals[i] = v
		sample.Add(v)
		sk.Observe(v)
	}
	exact := Summarize(&sample)
	got := sk.Summary()
	// Same Welford recurrence, same fold order → identical bits.
	if got.N != exact.N || math.Float64bits(got.Mean) != math.Float64bits(exact.Mean) ||
		math.Float64bits(got.Std) != math.Float64bits(exact.Std) ||
		got.Min != exact.Min || got.Max != exact.Max {
		t.Errorf("sketch summary %+v differs from exact %+v", got, exact)
	}
}

func TestSketchRejectsNonFinite(t *testing.T) {
	sk := NewSketch()
	sk.Observe(math.NaN())
	sk.Observe(math.Inf(1))
	sk.Observe(math.Inf(-1))
	sk.Observe(0.5)
	if sk.N() != 1 || sk.Rejected() != 3 {
		t.Errorf("N=%d Rejected=%d, want 1/3", sk.N(), sk.Rejected())
	}
	if sk.Mean() != 0.5 {
		t.Errorf("Mean=%v, want 0.5 (non-finite values must not pollute moments)", sk.Mean())
	}
}

func TestSketchQuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 20000
	vals := make([]float64, n)
	sk := NewSketch()
	for i := range vals {
		v := math.Exp(r.NormFloat64()) // lognormal spans several decades
		vals[i] = v
		sk.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		exact, err := SortedQuantile(vals, q)
		if err != nil {
			t.Fatal(err)
		}
		got := sk.Quantile(q)
		// The default scheme has 8 buckets/decade → ~33 % max relative
		// bucket width; interpolation does much better in practice, but
		// pin the guaranteed bound.
		if rel := math.Abs(got-exact) / exact; rel > 0.35 {
			t.Errorf("q=%v: sketch %v vs exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
	if got := sk.Quantile(0); got != vals[0] {
		t.Errorf("q=0 → %v, want exact min %v", got, vals[0])
	}
	if got := sk.Quantile(1); got != vals[n-1] {
		t.Errorf("q=1 → %v, want exact max %v", got, vals[n-1])
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := sk.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestSketchMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	seq := NewSketch()
	for _, v := range vals {
		seq.Observe(v)
	}
	// Fold the same values as [0,200) + [200,500) merged in order: counts
	// and min/max are exactly equal; moments agree to float tolerance
	// (the merge uses a different summation tree).
	a, b := NewSketch(), NewSketch()
	for _, v := range vals[:200] {
		a.Observe(v)
	}
	for _, v := range vals[200:] {
		b.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != seq.N() || a.Min() != seq.Min() || a.Max() != seq.Max() {
		t.Errorf("merged N/Min/Max (%d,%v,%v) != sequential (%d,%v,%v)",
			a.N(), a.Min(), a.Max(), seq.N(), seq.Min(), seq.Max())
	}
	if math.Abs(a.Mean()-seq.Mean()) > 1e-12*math.Abs(seq.Mean()) {
		t.Errorf("merged mean %v vs sequential %v", a.Mean(), seq.Mean())
	}
	if math.Abs(a.Std()-seq.Std()) > 1e-9*seq.Std() {
		t.Errorf("merged std %v vs sequential %v", a.Std(), seq.Std())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(q) != seq.Quantile(q) {
			t.Errorf("q=%v: merged %v vs sequential %v (same buckets must give same estimate)",
				q, a.Quantile(q), seq.Quantile(q))
		}
	}
}

func TestSketchMergeDeterministicFoldOrder(t *testing.T) {
	// Merging the same shard sequence twice gives bitwise-identical
	// state — the property the campaign runner's ascending block-order
	// merge relies on.
	build := func() *Sketch {
		r := rand.New(rand.NewSource(3))
		total := NewSketch()
		for s := 0; s < 8; s++ {
			sh := NewSketch()
			for i := 0; i < 100; i++ {
				sh.Observe(r.Float64())
			}
			if err := total.Merge(sh); err != nil {
				t.Fatal(err)
			}
		}
		return total
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical merge sequences produced different sketch state")
	}
}

func TestSketchMergeSelfAndSchemeMismatch(t *testing.T) {
	sk := NewSketch()
	sk.Observe(1)
	sk.Observe(2)
	if err := sk.Merge(sk); err != nil {
		t.Fatal(err)
	}
	if sk.N() != 2 {
		t.Errorf("self-merge changed N to %d", sk.N())
	}
}

func TestSketchJSONRoundTripBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sk := NewSketch()
	for i := 0; i < 333; i++ {
		sk.Observe(math.Exp(r.NormFloat64() * 3))
	}
	sk.Observe(math.NaN()) // rejected count must survive too
	data, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk, &back) {
		t.Errorf("round trip not bit-exact:\n in: %+v\nout: %+v", sk, &back)
	}
	// And the round-tripped sketch keeps folding identically.
	sk.Observe(0.123)
	back.Observe(0.123)
	if !reflect.DeepEqual(sk, &back) {
		t.Error("post-round-trip folds diverged")
	}
}

func TestSketchJSONRejectsCorruptState(t *testing.T) {
	for name, data := range map[string]string{
		"bad bucket index":  `{"lo":1e-9,"hi":1e12,"per_decade":8,"n":1,"mean_bits":0,"m2_bits":0,"min_bits":0,"max_bits":0,"buckets":[{"i":9999,"c":1}]}`,
		"count mismatch":    `{"lo":1e-9,"hi":1e12,"per_decade":8,"n":5,"mean_bits":0,"m2_bits":0,"min_bits":0,"max_bits":0,"buckets":[{"i":1,"c":1}]}`,
		"n without buckets": `{"lo":1e-9,"hi":1e12,"per_decade":8,"n":5,"mean_bits":0,"m2_bits":0,"min_bits":0,"max_bits":0}`,
		"bad scheme":        `{"lo":-1,"hi":1,"per_decade":8,"n":0,"mean_bits":0,"m2_bits":0,"min_bits":0,"max_bits":0}`,
		"other range":       `{"lo":1e-3,"hi":1e3,"per_decade":8,"n":1,"mean_bits":0,"m2_bits":0,"min_bits":0,"max_bits":0,"buckets":[{"i":1,"c":1}]}`,
		"other per decade":  `{"lo":1e-9,"hi":1e12,"per_decade":4,"n":1,"mean_bits":0,"m2_bits":0,"min_bits":0,"max_bits":0,"buckets":[{"i":1,"c":1}]}`,
	} {
		var sk Sketch
		if err := json.Unmarshal([]byte(data), &sk); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
	// Moments that Observe and Merge cannot produce. Each state's buckets
	// hold its n values, so only the moments are wrong.
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]struct {
		n                  int
		mean, m2, min, max float64
	}{
		"NaN mean, negative m2, min above max": {2, nan, -2, 1, 0.5},
		"NaN mean":                             {2, nan, 0, 1, 2},
		"NaN m2":                               {2, 1.5, nan, 1, 2},
		"NaN min":                              {2, 1.5, 0.5, nan, 2},
		"NaN max":                              {2, 1.5, 0.5, 1, nan},
		"infinite mean":                        {2, inf, 0.5, 1, 2},
		"infinite min":                         {2, 1.5, 0.5, -inf, 2},
		"infinite max":                         {2, 1.5, 0.5, 1, inf},
		"negative m2":                          {2, 1.5, -2, 1, 2},
		"min above max":                        {2, 1.5, 0.5, 2, 1},
		"empty with a mean":                    {0, 1, 0, 0, 0},
		"empty with an m2":                     {0, 0, 1, 0, 0},
		"empty with a -0 min":                  {0, 0, 0, math.Copysign(0, -1), 0},
	} {
		buckets := ""
		if c.n > 0 {
			buckets = fmt.Sprintf(`,"buckets":[{"i":%d,"c":%d}]`, bucketIndex(1), c.n)
		}
		data := fmt.Sprintf(`{"lo":1e-9,"hi":1e12,"per_decade":8,"n":%d,"mean_bits":%d,"m2_bits":%d,"min_bits":%d,"max_bits":%d%s}`,
			c.n, math.Float64bits(c.mean), math.Float64bits(c.m2), math.Float64bits(c.min), math.Float64bits(c.max), buckets)
		var sk Sketch
		if err := json.Unmarshal([]byte(data), &sk); err == nil {
			t.Errorf("%s: state accepted (Std reads %v)", name, sk.Std())
		}
	}
}

// FuzzSketchJSON feeds mutated sketch states to UnmarshalJSON. A state
// either fails to load, or its summary reads no NaN, it re-marshals to
// bytes that load and marshal again unchanged, and merged into an empty
// sketch it marshals to the same bytes.
func FuzzSketchJSON(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 40} {
		sk := NewSketch()
		for i := 0; i < n; i++ {
			sk.Observe(math.Exp(r.NormFloat64() * 4))
		}
		if n == 2 {
			sk.Observe(math.NaN())
		}
		data, err := json.Marshal(sk)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"lo":1e-9,"hi":1e12,"per_decade":8,"n":0,"mean_bits":4607182418800017408,"m2_bits":0,"min_bits":0,"max_bits":0}`))
	f.Add([]byte(`{"lo":1e-9,"hi":1e12,"per_decade":8,"n":2,"mean_bits":9221120237041090560,"m2_bits":13835058055282163712,"min_bits":4607182418800017408,"max_bits":4602678819172646912,"buckets":[{"i":73,"c":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk Sketch
		if json.Unmarshal(data, &sk) != nil {
			return
		}
		if s := sk.Summary(); math.IsNaN(s.Mean) || math.IsNaN(s.Std) || math.IsNaN(s.Min) || math.IsNaN(s.Max) {
			t.Fatalf("loaded state has a NaN summary %+v", s)
		}
		out, err := json.Marshal(&sk)
		if err != nil {
			t.Fatal(err)
		}
		var back Sketch
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-marshalled state fails to load: %v\n%s", err, out)
		}
		if again, _ := json.Marshal(&back); !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", out, again)
		}
		merged := NewSketch()
		if err := merged.Merge(&sk); err != nil {
			t.Fatal(err)
		}
		if m, _ := json.Marshal(merged); !bytes.Equal(m, out) {
			t.Fatalf("merged into an empty sketch, the state marshals differently:\n%s\n%s", out, m)
		}
	})
}

func TestSketchReset(t *testing.T) {
	sk := NewSketch()
	for i := 0; i < 50; i++ {
		sk.Observe(float64(i))
	}
	sk.Reset()
	if sk.N() != 0 || sk.Mean() != 0 || sk.Std() != 0 {
		t.Errorf("reset left state: N=%d Mean=%v", sk.N(), sk.Mean())
	}
	fresh := NewSketch()
	sk.Observe(3.14)
	fresh.Observe(3.14)
	if sk.Summary() != fresh.Summary() {
		t.Error("reset sketch folds differently from a fresh one")
	}
}
