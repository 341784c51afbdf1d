package obs

import "math"

// ExactSum accumulates float64 values exactly, in a fixed-point
// superaccumulator wide enough to hold any sum of finite doubles without
// rounding. Because the representation is exact, accumulation is fully
// associative and commutative: any grouping of the same multiset of
// values — one process or many, any worker count, any merge order —
// yields bit-identical state and therefore a bit-identical Round().
// That property is what makes registry merges deterministic: a
// histogram's sum merged from four shard registries equals the
// single-process sum exactly, not merely approximately.
//
// Representation: the value is
//
//	spill·2^(limbBits·nLimbs+minExp) + Σ limbs[i]·2^(limbBits·i+minExp)
//
// i.e. a base-2^32 fixed-point number whose least significant bit sits
// at 2^-1074 (the smallest subnormal) and whose top limb reaches past
// 2^1100 — headroom for 2^31 additions of ±MaxFloat64. Each Add splits
// the operand's 53-bit significand across at most three adjacent limbs;
// limbs are allowed to drift away from canonical range and are
// renormalized (Euclidean carry propagation, every limb back into
// [0, 2^32)) often enough that no int64 overflows. The canonical form is
// unique for a given exact value, so serialized states compare equal
// byte-for-byte whenever the sums are equal.
//
// Like the other instruments in this package, an ExactSum is not safe
// for concurrent use; shard per goroutine and Merge.
type ExactSum struct {
	limbs [xsumLimbs]int64
	// spill is the signed carry out of the top limb. It is nonzero only
	// for negative totals (canonically -1) or sums beyond ±2^1100.
	spill int64
	// adds counts additions since the last carry propagation.
	adds uint32
}

const (
	xsumLimbBits = 32
	xsumLimbMask = 1<<xsumLimbBits - 1
	// xsumMinExp is the exponent of the least significant tracked bit:
	// the smallest positive subnormal double is 2^-1074.
	xsumMinExp = -1074
	// xsumLimbs covers exponents up to 32·68-1074 = 2^1102, far above
	// the 2^1055 reachable by 2^31 additions of MaxFloat64.
	xsumLimbs = 68
	// xsumCarryEvery bounds limb drift: after propagation every limb is
	// below 2^32, each addition contributes less than 2^32 per limb, so
	// propagating every 2^30 additions keeps |limb| < 2^62.
	xsumCarryEvery = 1 << 30
)

// Add accumulates v exactly. Non-finite values are ignored — callers
// (Histogram) reject them before the sum.
func (s *ExactSum) Add(v float64) {
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff)
	man := bits & (1<<52 - 1)
	if exp == 0x7ff || (exp == 0 && man == 0) {
		return // NaN, ±Inf, ±0 all contribute nothing
	}
	// Significand and the shift of its LSB above 2^xsumMinExp: normals
	// carry the implicit bit and an LSB at 2^(exp-1075); subnormals have
	// an LSB at 2^-1074 exactly.
	var sh uint
	if exp == 0 {
		sh = 0
	} else {
		man |= 1 << 52
		sh = uint(exp - 1)
	}
	i := int(sh / xsumLimbBits)
	b := sh % xsumLimbBits
	// man<<b spans up to 85 bits; its low 64 bits survive Go's modular
	// shift and the high bits are man>>(64-b) (zero when b == 0, since
	// a 64-bit shift count of 64 yields 0).
	lo := man << b
	c0 := int64(lo & xsumLimbMask)
	c1 := int64(lo >> xsumLimbBits)
	c2 := int64(man >> (64 - b) & xsumLimbMask)
	if bits>>63 != 0 {
		s.limbs[i] -= c0
		s.limbs[i+1] -= c1
		s.limbs[i+2] -= c2
	} else {
		s.limbs[i] += c0
		s.limbs[i+1] += c1
		s.limbs[i+2] += c2
	}
	s.adds++
	if s.adds >= xsumCarryEvery {
		s.propagate()
	}
}

// propagate renormalizes to the canonical form: every limb in
// [0, 2^32), excess carried into spill. The arithmetic right shift is a
// floor division, so negative limbs borrow correctly (Euclidean
// remainder).
func (s *ExactSum) propagate() {
	var carry int64
	for i := range s.limbs {
		v := s.limbs[i] + carry
		carry = v >> xsumLimbBits
		s.limbs[i] = v & xsumLimbMask
	}
	s.spill += carry
	s.adds = 0
}

// Merge adds o's accumulated value into s, exactly. o is read through a
// normalized copy and not modified.
func (s *ExactSum) Merge(o *ExactSum) {
	if o == nil {
		return
	}
	t := *o
	t.propagate()
	s.propagate()
	for i := range s.limbs {
		s.limbs[i] += t.limbs[i]
	}
	s.spill += t.spill
	s.propagate()
}

// Round returns the accumulated value rounded to float64. The result is
// a pure function of the exact sum (it folds canonical limbs from most
// to least significant), so equal sums round to bit-identical floats
// regardless of accumulation order. Sums beyond ±MaxFloat64 round to
// ±Inf.
func (s *ExactSum) Round() float64 {
	t := *s
	t.propagate()
	sign := 1.0
	if t.spill < 0 {
		// Negate exactly (the canonical form of a negative value keeps
		// positive limbs under a negative spill) and round the positive
		// magnitude — folding a huge negative spill against small
		// positive limbs in float would lose everything below its ulp.
		sign = -1
		for i := range t.limbs {
			t.limbs[i] = -t.limbs[i]
		}
		t.spill = -t.spill
		t.propagate()
	}
	r := 0.0
	if t.spill != 0 {
		r = math.Ldexp(float64(t.spill), xsumLimbBits*xsumLimbs+xsumMinExp)
	}
	for i := xsumLimbs - 1; i >= 0; i-- {
		if t.limbs[i] != 0 {
			r += math.Ldexp(float64(t.limbs[i]), xsumLimbBits*i+xsumMinExp)
		}
	}
	return sign * r
}

// ExactSumState is the portable serialization of an ExactSum: the
// non-zero canonical limbs as [index, value] pairs in ascending index
// order, plus the spill. Limb values are below 2^32, so every field
// survives JSON's float64 number model exactly. Equal sums serialize to
// identical states.
type ExactSumState struct {
	Limbs [][2]int64 `json:"limbs,omitempty"`
	Spill int64      `json:"spill,omitempty"`
}

// State returns the canonical serialized form of the sum.
func (s *ExactSum) State() ExactSumState {
	t := *s
	t.propagate()
	var st ExactSumState
	st.Spill = t.spill
	for i, l := range t.limbs {
		if l != 0 {
			st.Limbs = append(st.Limbs, [2]int64{int64(i), l})
		}
	}
	return st
}
