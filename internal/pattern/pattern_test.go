package pattern

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/system"
)

func sys3() *system.System {
	return &system.System{
		Name:         "t3",
		MTBF:         100,
		BaselineTime: 1000,
		Levels: []system.Level{
			{Checkpoint: 0.1, Restart: 0.1, SeverityProb: 0.6},
			{Checkpoint: 1, Restart: 1, SeverityProb: 0.3},
			{Checkpoint: 10, Restart: 10, SeverityProb: 0.1},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	s := sys3()
	good := []Plan{
		{Tau0: 5, Counts: []int{2, 1}, Levels: []int{1, 2, 3}},
		{Tau0: 5, Counts: nil, Levels: []int{3}},
		{Tau0: 5, Counts: []int{0}, Levels: []int{2, 3}},
		{Tau0: 5, Counts: []int{4}, Levels: []int{1, 2}}, // skips PFS
	}
	for _, p := range good {
		if err := p.Validate(s); err != nil {
			t.Errorf("plan %v rejected: %v", p, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	s := sys3()
	bad := []Plan{
		{Tau0: 0, Counts: nil, Levels: []int{3}},
		{Tau0: math.Inf(1), Counts: nil, Levels: []int{3}},
		{Tau0: math.NaN(), Counts: nil, Levels: []int{3}},
		{Tau0: 5, Counts: nil, Levels: nil},
		{Tau0: 5, Counts: []int{1}, Levels: []int{3}},           // count/level mismatch
		{Tau0: 5, Counts: []int{1, 1}, Levels: []int{1, 2}},     // too many counts
		{Tau0: 5, Counts: []int{1}, Levels: []int{2, 2}},        // not ascending
		{Tau0: 5, Counts: []int{1}, Levels: []int{3, 1}},        // descending
		{Tau0: 5, Counts: []int{1}, Levels: []int{1, 4}},        // beyond L
		{Tau0: 5, Counts: []int{-1, 1}, Levels: []int{1, 2, 3}}, // negative N
	}
	for _, p := range bad {
		if err := p.Validate(s); err == nil {
			t.Errorf("plan %v accepted", p)
		}
	}
}

func TestPeriodArithmetic(t *testing.T) {
	p := Plan{Tau0: 3, Counts: []int{2, 1}, Levels: []int{1, 2, 3}}
	if got := p.PeriodIntervals(); got != 6 {
		t.Fatalf("intervals = %d, want 6", got)
	}
	if got := p.PeriodWork(); got != 18 {
		t.Fatalf("work = %v, want 18", got)
	}
	if got := p.TopPeriods(180); got != 10 {
		t.Fatalf("top periods = %v, want 10", got)
	}
}

func TestCheckpointsPerPeriod(t *testing.T) {
	// Figure 1's pattern: two level-1 ckpts before each level-2, one
	// level-2 before each level-3 → per period: 4 level-1, 1 level-2,
	// 1 level-3... recompute: counts = [2, 1]; level-1 ckpts = 2·(1+1)=4,
	// level-2 ckpts = 1·1 = 1, level-3 = 1.
	p := Plan{Tau0: 1, Counts: []int{2, 1}, Levels: []int{1, 2, 3}}
	got := p.CheckpointsPerPeriod()
	want := []int{4, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ckpts per period = %v, want %v", got, want)
		}
	}
	// Degenerate single level.
	p1 := Plan{Tau0: 1, Levels: []int{3}}
	if got := p1.CheckpointsPerPeriod(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("single-level ckpts = %v", got)
	}
}

func TestLevelAfterIntervalFigure1(t *testing.T) {
	// counts [2,1]: period of 6 intervals; boundaries:
	// 1→L1, 2→L1, 3→L2, 4→L1, 5→L1, 6→L3 (top).
	p := Plan{Tau0: 1, Counts: []int{2, 1}, Levels: []int{1, 2, 3}}
	want := []int{0, 0, 1, 0, 0, 2}
	for k := 0; k < 6; k++ {
		if got := p.LevelAfterInterval(k); got != want[k] {
			t.Errorf("interval %d → used level %d, want %d", k, got, want[k])
		}
	}
}

func TestLevelAfterIntervalZeroCounts(t *testing.T) {
	// N=0 means no intermediate checkpoints of that level: counts [0,2]
	// → subperiods of size 1 for level 2... boundaries at every interval
	// go straight to level 2 or 3.
	p := Plan{Tau0: 1, Counts: []int{0, 2}, Levels: []int{1, 2, 3}}
	if p.PeriodIntervals() != 3 {
		t.Fatalf("intervals = %d", p.PeriodIntervals())
	}
	want := []int{1, 1, 2} // L2, L2, L3
	for k := 0; k < 3; k++ {
		if got := p.LevelAfterInterval(k); got != want[k] {
			t.Errorf("interval %d → %d, want %d", k, got, want[k])
		}
	}
	ck := p.CheckpointsPerPeriod()
	if ck[0] != 0 || ck[1] != 2 || ck[2] != 1 {
		t.Fatalf("ckpts per period = %v", ck)
	}
}

func TestLevelAfterIntervalPanicsOutOfRange(t *testing.T) {
	p := Plan{Tau0: 1, Counts: []int{1}, Levels: []int{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.LevelAfterInterval(2)
}

func TestOdometerConsistentWithCounts(t *testing.T) {
	// Property: counting checkpoints emitted by the odometer over one
	// period must equal CheckpointsPerPeriod.
	f := func(n1Raw, n2Raw uint8) bool {
		n1 := int(n1Raw % 5)
		n2 := int(n2Raw % 4)
		p := Plan{Tau0: 1, Counts: []int{n1, n2}, Levels: []int{1, 2, 3}}
		counts := make([]int, 3)
		for k := 0; k < p.PeriodIntervals(); k++ {
			counts[p.LevelAfterInterval(k)]++
		}
		want := p.CheckpointsPerPeriod()
		for i := range want {
			if counts[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopLevelAndUses(t *testing.T) {
	p := Plan{Tau0: 1, Counts: []int{2}, Levels: []int{2, 4}}
	if p.TopLevel() != 4 || p.NumUsed() != 2 {
		t.Fatalf("top=%d used=%d", p.TopLevel(), p.NumUsed())
	}
	if !p.UsesLevel(2) || p.UsesLevel(3) {
		t.Fatal("UsesLevel wrong")
	}
	var empty Plan
	if empty.TopLevel() != 0 {
		t.Fatal("empty plan top level should be 0")
	}
}

func TestLevelHelpers(t *testing.T) {
	s := sys3()
	if got := AllLevels(s); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("AllLevels = %v", got)
	}
	if got := LowestLevels(2); len(got) != 2 || got[1] != 2 {
		t.Fatalf("LowestLevels = %v", got)
	}
}

func TestString(t *testing.T) {
	p := Plan{Tau0: 3.5, Counts: []int{2, 1}, Levels: []int{1, 2, 4}}
	s := p.String()
	if s == "" || p.Validate(sys3()) == nil {
		// Level 4 invalid on a 3-level system: String still works.
		_ = s
	}
	if want := "levels=[1 2 4]"; !contains(s, want) {
		t.Fatalf("String = %q missing %q", s, want)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestEveryIntervalHasExactlyOneCheckpoint(t *testing.T) {
	// Property: summing CheckpointsPerPeriod over levels equals the
	// number of intervals — the pattern takes exactly one checkpoint
	// after every computation interval.
	f := func(n1, n2, n3 uint8) bool {
		p := Plan{
			Tau0:   1,
			Counts: []int{int(n1 % 6), int(n2 % 5), int(n3 % 4)},
			Levels: []int{1, 2, 3, 4},
		}
		total := 0
		for _, c := range p.CheckpointsPerPeriod() {
			total += c
		}
		return total == p.PeriodIntervals()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopLevelCheckpointEndsPeriod(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		p := Plan{Tau0: 1, Counts: []int{int(n1 % 7), int(n2 % 7)}, Levels: []int{1, 2, 3}}
		last := p.PeriodIntervals() - 1
		return p.LevelAfterInterval(last) == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
