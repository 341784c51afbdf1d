package obs

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// randomValues mixes magnitudes, signs, subnormals and exact integers —
// the operand classes that break naive float summation.
func randomValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = float64(rng.Intn(1000)) // exact small integer
		case 1:
			out[i] = rng.NormFloat64() * 1e-12
		case 2:
			out[i] = rng.NormFloat64() * 1e12
		case 3:
			out[i] = math.Ldexp(rng.Float64(), -1050) // (near-)subnormal
		case 4:
			out[i] = -out[max(0, i-1)] // cancellation pressure
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// TestExactSumGroupingInvariance is the core property: any partition of
// the same values into shards, merged in any order, yields bit-identical
// state and rounding — the basis of cross-process snapshot determinism.
func TestExactSumGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		vals := randomValues(rng, 200)
		var ref ExactSum
		for _, v := range vals {
			ref.Add(v)
		}
		refState := ref.State()
		refRound := ref.Round()

		nShards := 1 + rng.Intn(7)
		shards := make([]ExactSum, nShards)
		for _, v := range vals {
			shards[rng.Intn(nShards)].Add(v)
		}
		var merged ExactSum
		for _, i := range rng.Perm(nShards) {
			merged.Merge(&shards[i])
		}
		if got := merged.State(); !reflect.DeepEqual(got, refState) {
			t.Fatalf("trial %d: merged state differs from single-accumulator state", trial)
		}
		if got := merged.Round(); math.Float64bits(got) != math.Float64bits(refRound) {
			t.Fatalf("trial %d: Round mismatch: %x vs %x", trial, got, refRound)
		}
	}
}

// TestExactSumMatchesBigFloat checks accuracy against an exact
// big.Float reference: Round must land within a hair of the true sum
// (the fold is deterministic but not single-rounded).
func TestExactSumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		vals := randomValues(rng, 300)
		var s ExactSum
		exact := new(big.Float).SetPrec(4096)
		for _, v := range vals {
			s.Add(v)
			exact.Add(exact, new(big.Float).SetPrec(4096).SetFloat64(v))
		}
		want, _ := exact.Float64()
		got := s.Round()
		if want == 0 {
			if math.Abs(got) > 1e-300 {
				t.Fatalf("trial %d: got %g, want 0", trial, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
			t.Fatalf("trial %d: got %g, want %g (rel err %g)", trial, got, want, rel)
		}
	}
}

// TestExactSumIntegerExact: sums that fit in 2^53 round exactly.
func TestExactSumIntegerExact(t *testing.T) {
	var s ExactSum
	total := 0.0
	for i := 1; i <= 10000; i++ {
		s.Add(float64(i))
		total += float64(i)
	}
	if got := s.Round(); got != total {
		t.Fatalf("integer sum: got %v, want %v", got, total)
	}
}

// TestExactSumCancellation: adding and removing the same huge values
// leaves exactly zero — naive float accumulation would not.
func TestExactSumCancellation(t *testing.T) {
	var s ExactSum
	for i := 0; i < 10; i++ {
		s.Add(1e308)
		s.Add(1.25e-300)
	}
	for i := 0; i < 10; i++ {
		s.Add(-1e308)
	}
	if got := s.Round(); got != 10*1.25e-300 {
		t.Fatalf("cancellation: got %g, want %g", got, 10*1.25e-300)
	}
	for i := 0; i < 10; i++ {
		s.Add(-1.25e-300)
	}
	if got := s.Round(); got != 0 {
		t.Fatalf("full cancellation: not zero (round %g)", got)
	}
}

// TestExactSumNegativeTotals: negative sums round correctly despite the
// spill/limb split of the canonical form.
func TestExactSumNegativeTotals(t *testing.T) {
	cases := [][]float64{
		{-1},
		{-0.1, -0.2},
		{1.5, -2.25},
		{-1e300, 1e280},
		{math.SmallestNonzeroFloat64, -1},
	}
	for _, vs := range cases {
		var s ExactSum
		naive := 0.0
		for _, v := range vs {
			s.Add(v)
			naive += v
		}
		got := s.Round()
		// With ≤2 effective magnitudes the naive sum is correctly
		// rounded, so the exact accumulator must agree or do better.
		if math.Abs(got-naive) > math.Abs(naive)*1e-15+1e-320 {
			t.Fatalf("sum %v: got %g, want ≈%g", vs, got, naive)
		}
		if naive < 0 != (got < 0) {
			t.Fatalf("sum %v: sign mismatch: got %g", vs, got)
		}
	}
}

// TestExactSumOverflowRounds: sums beyond MaxFloat64 are held exactly
// and round to +Inf, and cancel back down exactly.
func TestExactSumOverflowRounds(t *testing.T) {
	var s ExactSum
	s.Add(math.MaxFloat64)
	s.Add(math.MaxFloat64)
	if got := s.Round(); !math.IsInf(got, 1) {
		t.Fatalf("2·MaxFloat64: got %g, want +Inf", got)
	}
	s.Add(-math.MaxFloat64)
	if got := s.Round(); got != math.MaxFloat64 {
		t.Fatalf("after cancel: got %g, want MaxFloat64", got)
	}
}

// TestExactSumStateRoundTrip: a state survives a JSON round trip.
func TestExactSumStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randomValues(rng, 100)
	var s ExactSum
	for _, v := range vals {
		s.Add(v)
	}
	blob, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st ExactSumState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, s.State()) {
		t.Fatalf("round-trip state mismatch")
	}
}

// TestExactSumSubnormals: the smallest representable values accumulate
// exactly.
func TestExactSumSubnormals(t *testing.T) {
	var s ExactSum
	const n = 1 << 12
	for i := 0; i < n; i++ {
		s.Add(math.SmallestNonzeroFloat64)
	}
	want := math.SmallestNonzeroFloat64 * n // exact: a power-of-two scale
	if got := s.Round(); got != want {
		t.Fatalf("subnormal sum: got %g, want %g", got, want)
	}
}
