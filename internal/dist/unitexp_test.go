package dist

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// unitExpPins holds, for grid points u = m·2⁻⁵³, the bits of
// -math.Log1p(-u) on amd64: the small-u branch and its edge at 2⁻²⁹, the
// edges at 1/4 and 1/2, the top of the grid, inputs where 1-u is a power
// of two, both sides of the √2 mantissa threshold in three binades, both
// sides of √2-1 (where math.log1p leaves its k = 0 branch), PCG draws,
// and one input in each sixteenth of [0, 15/16). Every GOARCH checks
// UnitExp against it.
var unitExpPins = []struct{ m, bits uint64 }{
	{0x0, 0x0000000000000000},
	{0x1, 0x3ca0000000000000},
	{0x2, 0x3cb0000000000000},
	{0x3, 0x3cb8000000000001},
	{0xfffff, 0x3ddffffe0007ffff},
	{0xffffff, 0x3e1fffffe07fffff},
	{0x1000000, 0x3e20000000400000},
	{0x1000001, 0x3e20000010400001},
	{0x7ffffffffffff, 0x3fd269621134db90},
	{0x8000000000000, 0x3fd269621134db92},
	{0x8000000000001, 0x3fd269621134db95},
	{0xfffffffffffff, 0x3fe62e42fefa39ed},
	{0x10000000000000, 0x3fe62e42fefa39ef},
	{0x10000000000001, 0x3fe62e42fefa39f1},
	{0x1ffffffffffffe, 0x404205966f2b4f12},
	{0x1fffffffffffff, 0x40425e4f7b2737fa},
	{0x1ffffffffffffc, 0x4041acdd632f662b},
	{0x1ffffffffffc00, 0x403dce2a06a03dd9},
	{0x1fffffe0000000, 0x4030a2b23f3bab73},
	{0x18000000000000, 0x3ff62e42fefa39ef},
	{0x95f619980c432, 0x3fd62e42fefa39eb},
	{0x95f619980c433, 0x3fd62e42fefa39ee},
	{0x95f619980c434, 0x3fd62e42fefa39f1},
	{0x1ffe95f619980c, 0x4021542457337ce4},
	{0x1ffe95f619980d, 0x4021542457337e4e},
	{0x1ffe95f619980e, 0x4021542457337fb8},
	{0x1fffffffe95f61, 0x403686fc042d72c5},
	{0x1fffffffe95f62, 0x403686fc0f7dc1eb},
	{0x1fffffffe95f63, 0x403686fc1ace1192},
	{0xd413cccfe7799, 0x3fe11d14e1fcb72f},
	{0xd413cccfe779a, 0x3fe11d14e1fcb731},
	{0xc68b703fcb2ce, 0x3fdf6719ea827818},
	{0xd935b22a4335c, 0x3fe1aa7adc80ac4b},
	{0x10a3497c754642, 0x3fe77b860a557858},
	{0x16f5f79a453894, 0x3ff43a06678d31af},
	{0x19d58770aa7e, 0x3f69dffaab1c1a94},
	{0x16a9b47985fdca, 0x3ff3b53655947947},
	{0x1e2e1256fb16a7, 0x4006ef5f8bc697a0},
	{0x13d992be93c003, 0x3feefd1e0fad5dbf},
	{0x2545f4914f6cd, 0x3fb3598e8598d4d4},
	{0x4545f4914f6cd, 0x3fc29b8bd0d71220},
	{0x6545f4914f6cd, 0x3fcc35f3e32cccf6},
	{0x8545f4914f6cd, 0x3fd34bef4d4211d6},
	{0xa545f4914f6cd, 0x3fd8f247edbb4581},
	{0xc545f4914f6cd, 0x3fdf24c7a4e05f5b},
	{0xe545f4914f6cd, 0x3fe300c4afe5e818},
	{0x10545f4914f6cd, 0x3fe6d8c4b08894cd},
	{0x12545f4914f6cd, 0x3feb374ed193d637},
	{0x14545f4914f6cd, 0x3ff0238bf000e74e},
	{0x16545f4914f6cd, 0x3ff325893455a478},
	{0x18545f4914f6cd, 0x3ff6da949eea4835},
	{0x1a545f4914f6cd, 0x3ffbb003f5df38a4},
	{0x1c545f4914f6cd, 0x400152ccb5f60542},
	{0x1e545f4914f6cd, 0x40079f0c4c836455},
}

// gridPoint returns m·2⁻⁵³, the value rand.Float64 derives from m.
func gridPoint(m uint64) float64 { return float64(m) / (1 << 53) }

// TestUnitExpPinnedBits checks UnitExp against the amd64 bits of
// -math.Log1p(-u) without calling math.Log1p, so it holds on every
// GOARCH, including those where the stdlib's log1p fuses products.
func TestUnitExpPinnedBits(t *testing.T) {
	for _, p := range unitExpPins {
		if got := math.Float64bits(UnitExp(gridPoint(p.m))); got != p.bits {
			t.Errorf("UnitExp(%#x·2⁻⁵³) = %#016x, want %#016x", p.m, got, p.bits)
		}
	}
}

// TestUnitExpMatchesLog1p checks UnitExp bit for bit against
// -math.Log1p(-u) on amd64, where the stdlib's log1p is plain Go
// arithmetic that the compiler never fuses. Inputs: every m < 2²⁰ (u = 0
// included), the neighbourhoods of 2²⁴ (the u < 2⁻²⁹ branch), 2⁵¹, 2⁵²
// and 2⁵³-1, every m where 1-u is a power of two and its neighbours (the
// |f| < 2⁻²⁰ branch, which UnitExp folds into the polynomial), both sides
// of the √2 mantissa threshold in every binade of 1-u, both sides of
// √2-1, the pinned table, and 10⁷ PCG draws.
func TestUnitExpMatchesLog1p(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Log1p's bits are the reference on amd64 only")
	}
	const sqrt2Mant = 0x0006a09e667f3bcd
	checked, bad := 0, 0
	check := func(m uint64) {
		if m >= 1<<53 {
			return
		}
		checked++
		u := gridPoint(m)
		got, want := math.Float64bits(UnitExp(u)), math.Float64bits(-math.Log1p(-u))
		if got != want {
			if bad++; bad <= 10 {
				t.Errorf("UnitExp(%#x·2⁻⁵³) = %#016x, -math.Log1p(-u) = %#016x", m, got, want)
			}
		}
	}
	window := func(c, r uint64) {
		lo := uint64(0)
		if c > r {
			lo = c - r
		}
		for m := lo; m <= c+r; m++ {
			check(m)
		}
	}
	for m := uint64(0); m < 1<<20; m++ {
		check(m)
	}
	for _, c := range []uint64{1 << 24, 1 << 51, 1 << 52, 1<<53 - 1} {
		window(c, 1<<16)
	}
	for i := 0; i <= 52; i++ {
		// 1-u = 2^(i-53): a zero mantissa.
		window(1<<53-uint64(1)<<i, 64)
		// 1-u whose mantissa is √2's, in the binade [2^(i-53), 2^(i-52)).
		window(1<<53-(uint64(1<<52+sqrt2Mant)>>(52-i)), 64)
	}
	x := math.Sqrt2 - 1
	window(uint64(x*(1<<53)), 64)
	for _, p := range unitExpPins {
		check(p.m)
	}
	r := rand.New(rand.NewPCG(28, 1))
	for i := 0; i < 10_000_000; i++ {
		check(r.Uint64() >> 11)
	}
	if bad > 0 {
		t.Errorf("%d of %d inputs differ", bad, checked)
	}
	t.Logf("%d inputs bit-identical", checked)
}

// TestSamplersUseUnitExp checks that both inversion samplers draw
// through UnitExp, with the stream position of one rand.Float64 each,
// and that FromUnit of the same unit exponential gives the same bits
// (the simulator draws these laws' unit exponentials ahead).
func TestSamplersUseUnitExp(t *testing.T) {
	rate, scale, shape := 0.25, 10.0, 0.7
	e, _ := NewExponential(rate)
	w, _ := NewWeibull(scale, shape)
	a, b := rand.New(rand.NewPCG(5, 8)), rand.New(rand.NewPCG(5, 8))
	for i := 0; i < 1000; i++ {
		x := UnitExp(b.Float64())
		got, want := e.Sample(a), x/rate
		if got != want || math.Float64bits(e.FromUnit(x)) != math.Float64bits(got) {
			t.Fatalf("draw %d: exponential %v, FromUnit %v, want %v", i, got, e.FromUnit(x), want)
		}
		x = UnitExp(b.Float64())
		got, want = w.Sample(a), scale*math.Pow(x, 1/shape)
		if got != want || math.Float64bits(w.FromUnit(x)) != math.Float64bits(got) {
			t.Fatalf("draw %d: weibull %v, FromUnit %v, want %v", i, got, w.FromUnit(x), want)
		}
	}
}
