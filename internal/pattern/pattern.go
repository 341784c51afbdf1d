// Package pattern represents pattern-based multilevel checkpoint plans:
// the computation interval τ0, the counts N_1..N_{L-1} of level-i
// checkpoints taken before each level-i+1 checkpoint (paper Section III),
// and — for the level-exclusion study of Section IV-F — the subset of
// system levels a plan actually uses.
package pattern

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/system"
)

// Plan is one fully-specified checkpointing strategy for a system.
type Plan struct {
	// Tau0 is the computation interval between successive checkpoints,
	// in minutes (the paper's τ0 decision variable).
	Tau0 float64
	// Counts holds N_1..N_{ℓ-1} for the ℓ levels the plan uses: the
	// number of level-i checkpoints before each level-i+1 checkpoint.
	// Empty when the plan uses a single level.
	Counts []int
	// Levels is the ascending 1-based subset of system levels the plan
	// uses. A plan that skips the PFS level (Figure 5) simply omits L.
	// Failures whose severity exceeds the highest used level restart
	// the application from scratch.
	Levels []int
}

// NumUsed returns ℓ, the number of checkpoint levels the plan uses.
func (p Plan) NumUsed() int { return len(p.Levels) }

// TopLevel returns the highest system level the plan uses (0 if none).
func (p Plan) TopLevel() int {
	if len(p.Levels) == 0 {
		return 0
	}
	return p.Levels[len(p.Levels)-1]
}

// UsesLevel reports whether the 1-based system level appears in the plan.
func (p Plan) UsesLevel(level int) bool {
	for _, l := range p.Levels {
		if l == level {
			return true
		}
	}
	return false
}

// Validate checks the plan against a system description.
func (p Plan) Validate(sys *system.System) error {
	if !(p.Tau0 > 0) || math.IsInf(p.Tau0, 1) || math.IsNaN(p.Tau0) {
		return fmt.Errorf("pattern: τ0 = %v must be positive and finite", p.Tau0)
	}
	if len(p.Levels) == 0 {
		return errors.New("pattern: plan must use at least one level")
	}
	if len(p.Counts) != len(p.Levels)-1 {
		return fmt.Errorf("pattern: %d counts for %d levels (want %d)",
			len(p.Counts), len(p.Levels), len(p.Levels)-1)
	}
	prev := 0
	for _, l := range p.Levels {
		if l <= prev {
			return fmt.Errorf("pattern: levels %v must be strictly ascending", p.Levels)
		}
		if l > sys.NumLevels() {
			return fmt.Errorf("pattern: level %d exceeds system's %d levels", l, sys.NumLevels())
		}
		prev = l
	}
	for i, n := range p.Counts {
		if n < 0 {
			return fmt.Errorf("pattern: N_%d = %d must be non-negative", i+1, n)
		}
	}
	return nil
}

// PeriodIntervals returns the number of τ0 computation intervals in one
// full top-level pattern period, Π(N_i + 1).
func (p Plan) PeriodIntervals() int {
	n := 1
	for _, c := range p.Counts {
		n *= c + 1
	}
	return n
}

// PeriodWork returns the useful computation per top-level period,
// τ0 · Π(N_i + 1), in minutes.
func (p Plan) PeriodWork() float64 {
	return p.Tau0 * float64(p.PeriodIntervals())
}

// CheckpointsPerPeriod returns, aligned with p.Levels, how many
// checkpoints of each used level one full top-level period contains.
// With ℓ used levels and counts N_1..N_{ℓ-1}, a period contains
// N_i · Π_{j>i}(N_j+1) checkpoints of used-level i and exactly one
// checkpoint of the top used level.
func (p Plan) CheckpointsPerPeriod() []int {
	out := make([]int, len(p.Levels))
	suffix := 1
	for i := len(p.Levels) - 1; i >= 0; i-- {
		if i == len(p.Levels)-1 {
			out[i] = 1
		} else {
			out[i] = p.Counts[i] * suffix
			suffix *= p.Counts[i] + 1
		}
	}
	return out
}

// LevelAfterInterval returns the used-level index (0-based into
// p.Levels) of the checkpoint taken after the k-th τ0 interval of a
// period (k in [0, PeriodIntervals())). This is the pattern "odometer":
// interval k is followed by the highest level whose subperiod boundary k+1
// reaches, and the final interval of the period is followed by the top
// used level.
func (p Plan) LevelAfterInterval(k int) int {
	n := p.PeriodIntervals()
	if k < 0 || k >= n {
		panic(fmt.Sprintf("pattern: interval %d outside period of %d", k, n))
	}
	pos := k + 1 // 1-based boundary after the interval
	if pos == n {
		return len(p.Levels) - 1
	}
	// Sub-period sizes: level i (0-based) boundary every Π_{j<=i}(N_j+1)
	// intervals.
	size := 1
	level := 0
	for i := 0; i < len(p.Counts); i++ {
		size *= p.Counts[i] + 1
		if pos%size == 0 {
			level = i + 1
		} else {
			break
		}
	}
	return level
}

// TopPeriods returns N_L from paper Eqn. 3: the (real-valued) number of
// top-level periods needed to complete tb minutes of computation.
func (p Plan) TopPeriods(tb float64) float64 {
	return tb / p.PeriodWork()
}

// String renders the plan compactly, e.g.
// "τ0=3.50min levels=[1 2 4] N=[2 1]".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "τ0=%.4gmin levels=%v", p.Tau0, p.Levels)
	if len(p.Counts) > 0 {
		fmt.Fprintf(&b, " N=%v", p.Counts)
	}
	return b.String()
}

// AllLevels returns the complete ascending level set 1..L for a system.
func AllLevels(sys *system.System) []int {
	out := make([]int, sys.NumLevels())
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// LowestLevels returns the ascending subset 1..ℓ.
func LowestLevels(l int) []int {
	out := make([]int, l)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
