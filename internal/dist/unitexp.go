package dist

import "math"

// UnitExp returns -log1p(-u), the unit-exponential variate that inverse
// transform sampling maps u to, for u = m·2⁻⁵³ with 0 ≤ m < 2⁵³: the
// values rand.Float64 returns. On that domain its bits are those of
// -math.Log1p(-u) on amd64, and it returns them on every GOARCH; other
// inputs (u ≥ 1, negative u, NaN, or u off the grid) are outside its
// contract.
//
// It is math.log1p, the FreeBSD s_log1p.c algorithm, specialized to
// that grid:
//   - the special-case branches are gone: x = -u never reaches -1, Inf
//     or NaN, and the |x| < 2⁻⁵⁴ branch, which only u = 0 reaches,
//     folds into the |x| < 2⁻²⁹ one;
//   - 1-u is exact, so FreeBSD's correction term c is +0 and needs no
//     division;
//   - the k = 0 branch (√2/2-1 < x < √2-1) is folded into the reduction,
//     which gives that range the same f and k;
//   - the |f| < 2⁻²⁰ branch is folded into the polynomial, which gives
//     those inputs the same bits;
//   - the √2 mantissa normalization selects integers instead of
//     branching;
//   - every product is rounded explicitly as float64(x*y), so no
//     architecture fuses one into a multiply-add (arm64 would, and the
//     stdlib's log1p does there).
//
// The tests pin its bits against math.Log1p on amd64 and against a
// table everywhere.
//
// The constants and the method are from FreeBSD's
// /usr/src/lib/msun/src/s_log1p.c by way of Go's math package, which
// came with this notice:
//
//	====================================================
//	Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//	Developed at SunPro, a Sun Microsystems, Inc. business.
//	Permission to use, copy, modify, and distribute this
//	software is freely granted, provided that this notice
//	is preserved.
//	====================================================
func UnitExp(u float64) float64 {
	const (
		small     = 1.0 / (1 << 29)            // log1p(x) is x - x²/2 below this |x|
		sqrt2Mant = 0x0006a09e667f3bcd         // mantissa bits of √2
		ln2Hi     = 6.93147180369123816490e-01 // 3fe62e42fee00000
		ln2Lo     = 1.90821492927058770002e-10 // 3dea39ef35793c76
		lp1       = 6.666666666666735130e-01   // 3FE5555555555593
		lp2       = 3.999999999940941908e-01   // 3FD999999997FA04
		lp3       = 2.857142874366239149e-01   // 3FD2492494229359
		lp4       = 2.222219843214978396e-01   // 3FCC71C51D8E78AF
		lp5       = 1.818357216161805012e-01   // 3FC7466496CB03DE
		lp6       = 1.531383769920937332e-01   // 3FC39A09D078C69F
		lp7       = 1.479819860511658591e-01   // 3FC2F112DF3E5244
	)
	if u < small {
		// -(x - x*x*0.5) at x = -u; u = 0 gives +0.
		return u + float64(float64(u*u)*0.5)
	}
	// 1-u = 2^k·(1+f) with √2/2 ≤ 1+f < √2. The mantissa of 1-u is 1+f
	// below √2's mantissa; at or above it, 1+f is half of it and k grows
	// by one.
	iu := math.Float64bits(1 - u)
	below := (iu&(1<<52-1) - sqrt2Mant) >> 63 // 1 below √2's mantissa, else 0
	k := float64(int(iu>>52) - 1022 - int(below))
	f := math.Float64frombits(iu&(1<<52-1)|(0x3fe0000000000000+below<<52)) - 1
	hfsq := float64(float64(0.5*f) * f)
	s := f / (2 + f)
	z := float64(s * s)
	r := lp6 + float64(z*lp7)
	r = lp5 + float64(z*r)
	r = lp4 + float64(z*r)
	r = lp3 + float64(z*r)
	r = lp2 + float64(z*r)
	r = lp1 + float64(z*r)
	r = float64(z * r)
	return -(float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f))
}
