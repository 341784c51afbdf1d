// Package markov computes the exact expected duration of one multilevel
// checkpoint pattern period under competing exponential failure
// processes, by first-step analysis over the period's segments. It is the
// engine behind the reimplementation of Moody et al.'s SCR Markov model
// [5] (model/moody), and doubles as an independent exact reference for
// validating the event-driven simulator.
//
// A period is a sequence of segments — computation intervals and
// checkpoint writes — ending with the top-level checkpoint. A failure of
// severity s during segment k rolls the application back to the segment
// following the most recent committed checkpoint of level >= s (or to the
// period start, whose state is the previous period's top-level
// checkpoint), after a recovery process of one or more restart attempts
// that can themselves fail. Two recovery policies are supported:
//
//   - Retry: a failure of severity <= r during a level-r restart retries
//     the same restart; a higher severity switches the recovery to the
//     level that severity requires. This is the realistic assumption the
//     paper applies to its simulations (Section IV-G).
//   - Escalate: any failure during a level-r restart escalates recovery
//     to the next level up (at least the failing severity's level),
//     capped at the top. This is Moody et al.'s pessimistic assumption,
//     the cause of their model's efficiency underestimation.
//
// The first-passage decomposition makes the computation one forward
// sweep, O(segments × levels²), with no iteration: the expected time
// A_k to advance from segment k to k+1 satisfies a linear relation
// involving only the prefix sums of earlier A_m, because every failure
// path re-enters segment k exactly once.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
)

// RecoveryPolicy selects the failure-during-restart semantics.
type RecoveryPolicy int

const (
	// Retry is the realistic policy (paper Section IV-G).
	Retry RecoveryPolicy = iota
	// Escalate is Moody et al.'s pessimistic policy.
	Escalate
)

// SegmentKind discriminates period segments.
type SegmentKind int

const (
	// Compute is a τ0 computation interval.
	Compute SegmentKind = iota
	// Checkpoint is a checkpoint write; on success it commits state
	// recoverable for every severity up to its level.
	Checkpoint
)

// Segment is one step of the pattern period.
type Segment struct {
	Kind     SegmentKind
	Duration float64 // minutes
	// Level is the 1-based severity level a Checkpoint segment commits
	// (recoverable for severities <= Level). Ignored for Compute.
	Level int
}

// Chain is a fully-specified pattern period.
type Chain struct {
	// Segments in execution order; the last is normally the top-level
	// checkpoint.
	Segments []Segment
	// Rates holds the failure rate of each severity class, index 0 =
	// severity 1. Every severity must be recoverable by some checkpoint
	// level that appears in RestartTime.
	Rates []float64
	// RestartTime holds the restart duration per 1-based checkpoint
	// level (index 0 = level 1). A severity-s failure restarts from the
	// lowest level >= s present in this slice; entries for unused
	// levels may be 0 but the top level must cover the highest
	// severity.
	RestartTime []float64
	// Policy selects the failure-during-restart semantics.
	Policy RecoveryPolicy
}

// Work returns the useful computation per period in minutes.
func (c *Chain) Work() float64 {
	var w float64
	for _, s := range c.Segments {
		if s.Kind == Compute {
			w += s.Duration
		}
	}
	return w
}

// validate checks chain consistency and returns the total failure rate.
func (c *Chain) validate() (float64, error) {
	if len(c.Segments) == 0 {
		return 0, errors.New("markov: empty period")
	}
	total, err := c.validateConstants()
	if err != nil {
		return 0, err
	}
	for k, s := range c.Segments {
		if !validDuration(s.Duration) {
			return 0, fmt.Errorf("markov: segment %d duration %v must be positive and finite", k, s.Duration)
		}
		if s.Kind == Checkpoint && (s.Level < 1 || s.Level > len(c.RestartTime)) {
			return 0, fmt.Errorf("markov: segment %d commit level %d out of range", k, s.Level)
		}
	}
	return total, nil
}

// validateConstants checks the rates and restart times and returns the
// total failure rate. A restart time may be zero (unused levels use it)
// but never negative, NaN or infinite: a negative one could make an A_k
// negative, and the prefix sums of A_k must never decrease for the
// floors of SegmentTerms to stay a lower bound.
func (c *Chain) validateConstants() (float64, error) {
	if len(c.Rates) == 0 {
		return 0, errors.New("markov: no failure classes")
	}
	if len(c.RestartTime) < len(c.Rates) {
		return 0, fmt.Errorf("markov: %d restart levels cannot cover %d severities",
			len(c.RestartTime), len(c.Rates))
	}
	var total float64
	for i, r := range c.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("markov: severity %d rate %v invalid", i+1, r)
		}
		total += r
	}
	for i, r := range c.RestartTime {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("markov: level %d restart time %v invalid", i+1, r)
		}
	}
	return total, nil
}

// validDuration reports whether d is a positive, finite segment length.
func validDuration(d float64) bool { return d > 0 && !math.IsInf(d, 1) }

// Solver holds reusable scratch for chain evaluations. A zero Solver is
// ready to use; passing the same Solver to many ExpectedPeriodTimeWith
// calls makes the steady-state evaluation allocation-free and caches the
// per-duration exponentials (pattern periods repeat a handful of
// distinct segment durations — τ0 and one checkpoint cost per level — so
// the expensive exp/expm1 calls collapse from O(segments) to O(distinct
// durations)). A Solver must not be shared between goroutines.
//
// Reuse contract: a Solver remembers the rates, restart times, policy
// and segments of the last chain it solved (as copies, so callers may
// rewrite a chain in place between calls). When the next chain's rates
// and restart times are bit-identical and its policy is the same, the
// solver keeps the recovery table, keeps the posByLevel rows and the
// prefix sums of the longest segment prefix the two chains share, and
// resumes the forward sweep at the first segment that differs. This is
// exact, not approximate: A_k depends only on segments[0..k] and the
// chain constants, and the resumed sweep adds the same terms in the same
// order, so every result is bitwise identical to a fresh Solver's. A
// brute-force sweep whose neighbouring candidates share a period prefix
// (the count odometer turning its last digit) pays only for each new
// period's tail.
type Solver struct {
	prefix     []float64
	posByLevel []int
	last       []int
	rec        []recovery
	absorb     []float64 // backing array for the recovery absorb rows

	// Duration → (survival, truncated-expectation) cache, valid for the
	// remembered total rate; reset with the constants or the prefix.
	durs, durQ, durPartial []float64

	// The last chain solved: its constants (valid when primed), its
	// segments, and how many A_k its sweep computed before finishing or
	// exiting early (prefix[0..solved] hold).
	primed       bool
	rates, rtime []float64
	policy       RecoveryPolicy
	segs         []Segment
	solved       int
}

// sameConstants reports whether c's rates, restart times and policy are
// bit-identical to the remembered chain's.
func (s *Solver) sameConstants(c *Chain) bool {
	return s.primed && s.policy == c.Policy &&
		sameBits(s.rates, c.Rates) && sameBits(s.rtime, c.RestartTime)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// commonPrefix returns the number of leading segments a and b share.
func commonPrefix(a, b []Segment) int {
	n := min(len(a), len(b))
	for k := 0; k < n; k++ {
		if a[k].Kind != b[k].Kind || a[k].Level != b[k].Level ||
			math.Float64bits(a[k].Duration) != math.Float64bits(b[k].Duration) {
			return k
		}
	}
	return n
}

func (s *Solver) resetDurations() {
	s.durs = s.durs[:0]
	s.durQ = s.durQ[:0]
	s.durPartial = s.durPartial[:0]
}

// expDurCacheMax bounds the duration cache's linear scan; chains with
// more distinct durations fall back to direct computation.
const expDurCacheMax = 16

// expFor returns exp(-lambda·d) and TruncExp(d, lambda), serving repeats
// from the cache. Values are bitwise identical to direct computation.
func (s *Solver) expFor(d, lambda float64) (q, partial float64) {
	for i, dv := range s.durs {
		if dv == d {
			return s.durQ[i], s.durPartial[i]
		}
	}
	q = math.Exp(-lambda * d)
	partial = dist.TruncExp(d, lambda)
	if len(s.durs) < expDurCacheMax {
		s.durs = append(s.durs, d)
		s.durQ = append(s.durQ, q)
		s.durPartial = append(s.durPartial, partial)
	}
	return q, partial
}

// growFloats and growInts resize scratch to n, keeping the current
// contents (the reused prefix rows live there).
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		ns := make([]float64, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		ns := make([]int, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// ExpectedPeriodTime returns the exact expected wall-clock duration of
// one period, including all failure, rollback and recovery overhead. The
// result is +Inf when the period cannot complete (a restart or segment
// whose success probability underflows to zero).
func (c *Chain) ExpectedPeriodTime() (float64, error) {
	return c.ExpectedPeriodTimeWith(nil)
}

// ExpectedPeriodTimeWith is ExpectedPeriodTime evaluating into the
// solver's scratch buffers (nil falls back to a private solver). Hot
// loops — the brute-force interval sweep — keep one Solver per goroutine
// and pay no allocation per chain.
func (c *Chain) ExpectedPeriodTimeWith(s *Solver) (float64, error) {
	lambda, err := c.validate()
	if err != nil {
		return 0, err
	}
	if lambda == 0 {
		// No failures: the period is just the sum of its segments.
		var t float64
		for _, s := range c.Segments {
			t += s.Duration
		}
		return t, nil
	}
	if s == nil {
		s = &Solver{}
	}
	L := len(c.Rates)
	n := len(c.Segments)

	// Reuse (see the Solver contract): p0 is the first posByLevel row
	// and k0 the first A_k this chain cannot take from the last one.
	oldN := len(s.segs)
	var p0, k0 int
	if s.sameConstants(c) {
		p0 = commonPrefix(s.segs, c.Segments)
		k0 = min(p0, s.solved)
		if k0 == 0 {
			s.resetDurations()
		}
	} else {
		s.resetDurations()
		c.recoveriesInto(s, lambda)
		s.primed, s.policy = true, c.Policy
		s.rates = append(s.rates[:0], c.Rates...)
		s.rtime = append(s.rtime[:0], c.RestartTime...)
	}
	s.segs = append(s.segs[:p0], c.Segments[p0:]...)
	rec := s.rec

	// posByLevel[k*L + (u-1)] = resume segment index after a recovery
	// from a level-u checkpoint when the failure struck segment k: the
	// segment after the latest committed checkpoint of level >= u
	// strictly before k, or 0 (period start).
	posByLevel := growInts(s.posByLevel, n*L)
	s.posByLevel = posByLevel
	last := growInts(s.last, L) // last[u-1] = resume position for level u so far
	s.last = last
	switch {
	case p0 == 0:
		clear(last)
	case p0 < oldN:
		copy(last, posByLevel[p0*L:(p0+1)*L])
	}
	// p0 == oldN: last already holds the state after the old chain's
	// final segment.
	for k := p0; k < n; k++ {
		copy(posByLevel[k*L:(k+1)*L], last)
		if s := c.Segments[k]; s.Kind == Checkpoint {
			// Commits above the top severity recover the same states.
			for u := 1; u <= min(s.Level, L); u++ {
				last[u-1] = k + 1
			}
		}
	}

	// Forward first-passage sweep.
	prefix := growFloats(s.prefix, n+1) // prefix[k] = Σ_{m<k} A_m
	s.prefix = prefix
	prefix[0] = 0
	for k := k0; k < n; k++ {
		d := c.Segments[k].Duration
		q, partial := s.expFor(d, lambda)
		if q == 0 {
			s.solved = k
			return math.Inf(1), nil
		}
		pf := 1 - q

		// Every product is rounded explicitly (float64(...)) so that no
		// GOARCH fuses it into the following addition.
		acc := float64(q*d) + float64(pf*partial)
		for sev := 1; sev <= L; sev++ {
			ps := pf * c.Rates[sev-1] / lambda
			if ps == 0 {
				continue
			}
			r0 := sev // recovery starts at the lowest level >= severity = sev itself
			rc := rec[r0-1]
			if math.IsInf(rc.time, 1) {
				s.solved = k
				return math.Inf(1), nil
			}
			acc += float64(ps * rc.time)
			for u := r0; u <= L; u++ {
				if a := rc.absorb[u-1]; a > 0 {
					acc += float64(ps * a * (prefix[k] - prefix[posByLevel[k*L+u-1]]))
				}
			}
		}
		ak := acc / q
		prefix[k+1] = prefix[k] + ak
	}
	s.solved = n
	return prefix[n], nil
}

// SegmentTerms splits the forward sweep's A_k for a segment of each
// duration d into a no-rollback floor and one rollback coefficient per
// recovery level v = 1..L:
//
//	A_k = F(d) + Σ_v c_v(d)·(prefix[k] − prefix[pos_v]),
//	F(d) = [q·d + (1−q)·E(d, λ) + Σ_s p_s·R_s] / q,
//	c_v(d) = Σ_{s≤v} p_s·a_{s,v} / q,
//	q = e^(−λd),  p_s = (1−q)·λ_s/λ,
//
// where E is the truncated expectation, R_s the expected recovery time
// starting at level s, a_{s,v} the probability that such a recovery
// completes by reading level v, and pos_v the resume position after a
// level-v recovery. floors[i] is F(durations[i]) and coefs[i][v−1] is
// c_v(durations[i]). Only the chain's rates, restart times and policy
// are read, not its segments.
//
// F is +Inf when q underflows or a recovery that a failure needs cannot
// complete, the cases in which the sweep itself returns +Inf; the
// coefficient row is all +Inf there too. Every coefficient is
// non-negative, and a failure-free chain has F(d) = d and zero rows.
//
// F is a floor under every A_k of duration d in any chain with these
// constants, bit for bit. Each dropped term p_s·a_u·(prefix[k] −
// prefix[pos]) is non-negative: the probabilities are, and the prefix
// sums never decrease because validated restart times keep every A_m
// non-negative. F evaluates the sweep's own expressions in the sweep's
// order, leaving those terms out, and floating-point addition of a
// non-negative term never decreases a sum. So a period's expected time
// is at least the sum of its segments' floors. The rollback sum
// regroups the sweep's terms by v, so F plus it agrees with A_k up to
// rounding, not bit for bit.
func (c *Chain) SegmentTerms(durations []float64) (floors []float64, coefs [][]float64, err error) {
	lambda, err := c.validateConstants()
	if err != nil {
		return nil, nil, err
	}
	L := len(c.Rates)
	floors = make([]float64, len(durations))
	coefs = make([][]float64, len(durations))
	var s Solver
	var rec []recovery
	if lambda > 0 {
		rec = c.recoveriesInto(&s, lambda)
	}
	for i, d := range durations {
		if !validDuration(d) {
			return nil, nil, fmt.Errorf("markov: segment term duration %v must be positive and finite", d)
		}
		row := make([]float64, L)
		coefs[i] = row
		if lambda == 0 {
			floors[i] = d
			continue
		}
		q, partial := s.expFor(d, lambda)
		if q == 0 {
			floors[i] = math.Inf(1)
			fillInf(row)
			continue
		}
		pf := 1 - q
		acc := float64(q*d) + float64(pf*partial)
		for sev := 1; sev <= L; sev++ {
			ps := pf * c.Rates[sev-1] / lambda
			if ps == 0 {
				continue
			}
			rc := rec[sev-1]
			if math.IsInf(rc.time, 1) {
				acc = math.Inf(1)
				fillInf(row)
				break
			}
			acc += float64(ps * rc.time)
			for v := sev; v <= L; v++ {
				if a := rc.absorb[v-1]; a > 0 {
					row[v-1] += float64(ps * a)
				}
			}
		}
		floors[i] = acc / q
		for v := range row {
			row[v] /= q
		}
	}
	return floors, coefs, nil
}

func fillInf(row []float64) {
	for v := range row {
		row[v] = math.Inf(1)
	}
}

// recovery holds the expected duration of a recovery that starts at a
// given level and its absorption distribution over the level whose
// checkpoint is finally read.
type recovery struct {
	time   float64
	absorb []float64 // index u-1: P(recovery completes reading level u)
}

// recoveriesInto solves the per-start-level recovery chains top-down
// into the solver's scratch. Levels only move upward under both
// policies, so each level's equations depend only on strictly higher
// levels plus a self-loop.
func (c *Chain) recoveriesInto(s *Solver, lambda float64) []recovery {
	L := len(c.Rates)
	out := growRecoveries(s, L)
	for u := L; u >= 1; u-- {
		R := c.RestartTime[u-1]
		var q, partial float64
		if R > 0 {
			q, partial = s.expFor(R, lambda)
		} else {
			q = 1 // free restart always succeeds
		}
		pf := 1 - q

		var pSelf, base float64
		absorb := out[u-1].absorb
		base = float64(q*R) + float64(pf*partial)
		absorb[u-1] = q
		for s := 1; s <= L; s++ {
			ps := pf * c.Rates[s-1] / lambda
			if ps == 0 {
				continue
			}
			next := c.nextLevel(u, s, L)
			if next == u {
				pSelf += ps
				continue
			}
			base += float64(ps * out[next-1].time)
			for v := next; v <= L; v++ {
				absorb[v-1] += float64(ps * out[next-1].absorb[v-1])
			}
		}
		denom := 1 - pSelf
		if denom <= 0 {
			out[u-1].time = math.Inf(1)
			continue
		}
		for v := range absorb {
			absorb[v] /= denom
		}
		out[u-1].time = base / denom
	}
	return out
}

// growRecoveries sizes the solver's recovery scratch to L levels with
// zeroed absorb rows carved from one backing array.
func growRecoveries(s *Solver, L int) []recovery {
	if cap(s.rec) < L || cap(s.absorb) < L*L {
		s.rec = make([]recovery, L)
		s.absorb = make([]float64, L*L)
	}
	s.rec = s.rec[:L]
	s.absorb = s.absorb[:L*L]
	for i := range s.absorb {
		s.absorb[i] = 0
	}
	for u := 0; u < L; u++ {
		s.rec[u] = recovery{absorb: s.absorb[u*L : (u+1)*L]}
	}
	return s.rec
}

// nextLevel applies the policy: the restart level after a severity-s
// failure interrupts a level-u restart.
func (c *Chain) nextLevel(u, s, top int) int {
	switch c.Policy {
	case Escalate:
		next := u + 1
		if next > top {
			next = top
		}
		if s > next {
			next = s
		}
		return next
	default: // Retry
		if s > u {
			return s
		}
		return u
	}
}
