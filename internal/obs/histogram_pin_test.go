package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// pinSample is a seeded sample that reaches every region of the log
// bucket scheme: the underflow bucket (zeros, negatives, values at or
// below 1e-9), exact bucket bounds (powers of ten and the first bound
// above 1e-9), the overflow bucket (above 1e12) and non-finite values,
// around a bulk of spread-out and efficiency-like draws.
func pinSample() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), -1, -2.5e-3, -7e5,
		5e-324, 1e-12, 3e-10, 1e-9,
		1.3335214321633241e-09, 1.778279410038923e-09, 1e-8, 1e-3, 1, 10,
		100, 1e6, 7.498942093324558e+11, 1e12, 1.0000000000000001e+12,
		1.0000000001e12, 2e12, 1e13, 3.5e20,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	r := rand.New(rand.NewPCG(27, 1))
	for i := 0; i < 500; i++ {
		switch i % 3 {
		case 0:
			vs = append(vs, math.Exp(6*r.NormFloat64()))
		case 1:
			vs = append(vs, r.Float64())
		default:
			vs = append(vs, 600*r.ExpFloat64())
		}
	}
	return vs
}

// The log-bucket scheme's bytes and bits, captured before the histogram
// and the sketch shared one implementation. Any change to a bucket
// index, a bound, an interpolation or a serialized field moves them.
const (
	pinSnapshotSHA256 = "990811d3b50f889ac7d4e53175a7737eff343c3362ae0937cb356ded22868b6e"
	pinSnapshotLen    = 8137
	pinSketchSHA256   = "4c0b890cc53cf4dee3d1e65dbef245ffc818fa0eb00ce2fed0ac34560b68128b"
	pinSketchLen      = 1644
)

var pinQuantileBits = map[float64]uint64{
	0:    0xc1255cc000000000, // -7e5, the minimum
	0.01: 0x3e112e0be826d695, // 1e-9, the underflow bucket's bound
	0.5:  0x3fefcf0671426b4b,
	0.9:  0x4094163911c96e3c,
	0.99: 0x426c1da3d2c1b9fe, // inside the last log bucket
	1:    0x4432f939c99edab8, // 3.5e20, the maximum
}

var pinQuantiles = []float64{0, 0.01, 0.5, 0.9, 0.99, 1}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestLogBucketBytesPinned pins the registry snapshot JSON of a
// histogram, the sketch JSON and both types' quantile bits on one
// sample, and requires the two types to agree on every quantile.
func TestLogBucketBytesPinned(t *testing.T) {
	sample := pinSample()
	reg := NewRegistry()
	h := reg.Histogram("pin_hist", "case", "mixed")
	sk := stats.NewSketch()
	for _, v := range sample {
		h.Observe(v)
		sk.Observe(v)
	}

	var snap bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(snap.Bytes()); got != pinSnapshotSHA256 || snap.Len() != pinSnapshotLen {
		t.Errorf("registry snapshot: sha256 %s, %d bytes; want %s, %d bytes\n%s",
			got, snap.Len(), pinSnapshotSHA256, pinSnapshotLen, snap.Bytes())
	}

	// A registry merged from two halves of the sample writes the same
	// bytes: the exact sums do not depend on the partition.
	a, b := NewRegistry(), NewRegistry()
	for i, v := range sample {
		dst := a
		if i%2 == 1 {
			dst = b
		}
		dst.Histogram("pin_hist", "case", "mixed").Observe(v)
	}
	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := b.Snapshot().WriteJSON(&merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), snap.Bytes()) {
		t.Errorf("merged halves snapshot differs from the single registry's\n%s", merged.Bytes())
	}

	js, err := sk.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(js); got != pinSketchSHA256 || len(js) != pinSketchLen {
		t.Errorf("sketch JSON: sha256 %s, %d bytes; want %s, %d bytes\n%s",
			got, len(js), pinSketchSHA256, pinSketchLen, js)
	}

	for _, q := range pinQuantiles {
		hq, sq := math.Float64bits(h.Quantile(q)), math.Float64bits(sk.Quantile(q))
		if hq != sq {
			t.Errorf("Quantile(%v): histogram %v, sketch %v", q, h.Quantile(q), sk.Quantile(q))
		}
		if want := pinQuantileBits[q]; hq != want {
			t.Errorf("Quantile(%v) = %v (bits %#x), want bits %#x", q, h.Quantile(q), hq, want)
		}
	}
}
