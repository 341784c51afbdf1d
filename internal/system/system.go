// Package system describes the failure-prone HPC systems the paper
// evaluates: an ordered set of checkpoint/restart levels, a system MTBF,
// and the probability distribution of failure severity classes. It also
// carries the Table I catalog of test systems, level projection for
// models restricted to fewer levels (Daly, Di), and the exascale scaling
// knobs used by Figures 4 and 5.
//
// Conventions (matching the paper): all times are in minutes; levels are
// numbered 1..L from the fastest/least-reliable (local RAM) to the
// slowest/most-reliable (parallel file system); a failure of severity s
// requires restart from a checkpoint of level >= s.
package system

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/dist"
)

// Level describes one checkpoint/restart level.
type Level struct {
	// Checkpoint is δ_i, the duration of a level-i checkpoint in
	// minutes. Per the SCR protocol a level-i checkpoint includes all
	// lower-level checkpoints; δ_i is the inclusive total.
	Checkpoint float64
	// Restart is R_i, the duration of a restart from a level-i
	// checkpoint in minutes. Table I assumes R_i = δ_i.
	Restart float64
	// SeverityProb is S_i, the probability that a failure, given one
	// occurs, has severity i and therefore needs a level >= i restart.
	SeverityProb float64
}

// System is a complete test-system description.
type System struct {
	// Name identifies the system (Table I's first column).
	Name string
	// Source describes where the parameters come from.
	Source string
	// MTBF is the system mean time between failures in minutes
	// (1/λ over all severities).
	MTBF float64
	// Levels holds the L checkpoint levels, index 0 = level 1.
	Levels []Level
	// BaselineTime is T_B, the failure- and resilience-free execution
	// time of the studied application, in minutes.
	BaselineTime float64
}

// NumLevels returns L.
func (s *System) NumLevels() int { return len(s.Levels) }

// Lambda returns the aggregate system failure rate λ = 1/MTBF.
func (s *System) Lambda() float64 { return 1 / s.MTBF }

// LevelRate returns λ_i = S_i·λ for 1-based level i.
func (s *System) LevelRate(i int) float64 {
	return s.Levels[i-1].SeverityProb * s.Lambda()
}

// Rates returns the per-severity failure rates λ_1..λ_L as a
// competing-risk set.
func (s *System) Rates() (*dist.CompetingRates, error) {
	rates := make([]float64, len(s.Levels))
	for i, l := range s.Levels {
		rates[i] = l.SeverityProb * s.Lambda()
	}
	return dist.NewCompeting(rates)
}

// Validate checks the structural invariants of a system description.
func (s *System) Validate() error {
	if s.Name == "" {
		return errors.New("system: missing name")
	}
	if !positiveFinite(s.MTBF) {
		return fmt.Errorf("system %s: MTBF %v must be positive and finite", s.Name, s.MTBF)
	}
	if len(s.Levels) == 0 {
		return fmt.Errorf("system %s: needs at least one level", s.Name)
	}
	if !positiveFinite(s.BaselineTime) {
		return fmt.Errorf("system %s: baseline time %v must be positive and finite", s.Name, s.BaselineTime)
	}
	var probSum float64
	for i, l := range s.Levels {
		if !positiveFinite(l.Checkpoint) {
			return fmt.Errorf("system %s: level %d checkpoint time %v must be positive and finite", s.Name, i+1, l.Checkpoint)
		}
		if !positiveFinite(l.Restart) {
			return fmt.Errorf("system %s: level %d restart time %v must be positive and finite", s.Name, i+1, l.Restart)
		}
		if !(l.SeverityProb >= 0 && l.SeverityProb <= 1) {
			return fmt.Errorf("system %s: level %d severity probability %v outside [0,1]", s.Name, i+1, l.SeverityProb)
		}
		probSum += l.SeverityProb
	}
	if math.Abs(probSum-1) > 1e-6 {
		return fmt.Errorf("system %s: severity probabilities sum to %v, want 1", s.Name, probSum)
	}
	return nil
}

// positiveFinite reports whether x is a positive, finite number (false
// for NaN and ±Inf).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// WellOrdered reports whether the usual multilevel ordering
// δ_1 <= ... <= δ_L and R_1 <= ... <= R_L holds. Table I systems all
// satisfy it; custom systems may legitimately not.
func (s *System) WellOrdered() bool {
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i].Checkpoint < s.Levels[i-1].Checkpoint {
			return false
		}
		if s.Levels[i].Restart < s.Levels[i-1].Restart {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (s *System) Clone() *System {
	c := *s
	c.Levels = append([]Level(nil), s.Levels...)
	return &c
}

// Project maps the system onto a model that only understands the given
// 1-based subset of levels (ascending). Severity mass of a class is
// assigned to the lowest kept level that can recover it (the first kept
// level >= the class); severity classes above the highest kept level are
// dropped from the projection and reported in residual (the caller
// decides whether those mean "restart from scratch" or are excluded).
//
// Example: Daly uses Project([L]) — one PFS level absorbing all severity
// mass; Di on a 4-level system uses Project([3, 4]).
func (s *System) Project(keep []int) (*System, float64, error) {
	if len(keep) == 0 {
		return nil, 0, errors.New("system: projection needs at least one level")
	}
	prev := 0
	for _, k := range keep {
		if k <= prev || k > len(s.Levels) {
			return nil, 0, fmt.Errorf("system %s: projection levels %v must be ascending 1-based and <= %d", s.Name, keep, len(s.Levels))
		}
		prev = k
	}
	out := &System{
		Name:         fmt.Sprintf("%s/project%v", s.Name, keep),
		Source:       s.Source,
		MTBF:         s.MTBF,
		BaselineTime: s.BaselineTime,
	}
	lo := 1
	var assigned float64
	for _, k := range keep {
		var mass float64
		for sev := lo; sev <= k; sev++ {
			mass += s.Levels[sev-1].SeverityProb
		}
		lo = k + 1
		out.Levels = append(out.Levels, Level{
			Checkpoint:   s.Levels[k-1].Checkpoint,
			Restart:      s.Levels[k-1].Restart,
			SeverityProb: mass,
		})
		assigned += mass
	}
	residual := 1 - assigned
	if residual < 0 {
		residual = 0
	}
	return out, residual, nil
}

// WithMTBF returns a copy with the MTBF replaced (Figure 4/5 scaling).
func (s *System) WithMTBF(mtbf float64) *System {
	c := s.Clone()
	c.MTBF = mtbf
	c.Name = fmt.Sprintf("%s/mtbf=%g", s.Name, mtbf)
	return c
}

// WithTopCost returns a copy whose level-L checkpoint and restart times
// are replaced (the PFS cost scaling of Figures 4 and 5; lower levels are
// unchanged because they spread data across the system).
func (s *System) WithTopCost(minutes float64) *System {
	c := s.Clone()
	c.Levels[len(c.Levels)-1].Checkpoint = minutes
	c.Levels[len(c.Levels)-1].Restart = minutes
	c.Name = fmt.Sprintf("%s/pfs=%g", s.Name, minutes)
	return c
}

// WithBaseline returns a copy with a different application baseline time
// (Figure 5's 30-minute application).
func (s *System) WithBaseline(tb float64) *System {
	c := s.Clone()
	c.BaselineTime = tb
	c.Name = fmt.Sprintf("%s/tb=%g", s.Name, tb)
	return c
}

// String renders a compact one-line description.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: L=%d MTBF=%.4gmin TB=%.4gmin", s.Name, len(s.Levels), s.MTBF, s.BaselineTime)
	for i, l := range s.Levels {
		fmt.Fprintf(&b, " [%d: S=%.3f δ=%.4g R=%.4g]", i+1, l.SeverityProb, l.Checkpoint, l.Restart)
	}
	return b.String()
}
