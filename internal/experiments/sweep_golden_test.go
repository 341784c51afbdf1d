package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/system"
)

var updatePins = flag.Bool("update", false, "rewrite the testdata pins files from the current code")

// sweepPin is one optimizer result, floats as exact bit patterns.
type sweepPin struct {
	Tau0Bits uint64 `json:"tau0_bits"`
	Counts   []int  `json:"counts"`
	Levels   []int  `json:"levels"`
	TimeBits uint64 `json:"time_bits"`
	EffBits  uint64 `json:"eff_bits"`
}

func (p sweepPin) String() string {
	return fmt.Sprintf("τ0=%v counts=%v levels=%v time=%v eff=%v",
		math.Float64frombits(p.Tau0Bits), p.Counts, p.Levels,
		math.Float64frombits(p.TimeBits), math.Float64frombits(p.EffBits))
}

// TestSweepGoldenPins pins the optimizer's answer — plan plus the bit
// patterns of the predicted time and efficiency — for the dauwe, di and
// moody sweeps on every Table I system, on both the default and the Fast
// grids, at 1 and 4 sweep workers. The pins were captured before the
// sweep objectives became incremental (memoized Dauwe terms, Markov
// prefix reuse); any drift in those caches shows up here as a changed
// bit.
func TestSweepGoldenPins(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-grid sweeps")
	}
	path := filepath.Join("testdata", "sweep_pins.json")
	want := map[string]sweepPin{}
	if !*updatePins {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read pins (run with -update to create): %v", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]sweepPin{}
	for _, fast := range []bool{false, true} {
		grid := "default"
		if fast {
			grid = "fast"
		}
		for _, tech := range []string{"dauwe", "di", "moody"} {
			for _, sys := range system.TableI() {
				key := grid + "/" + tech + "/" + sys.Name
				for _, workers := range []int{1, 4} {
					m, err := newTechnique(tech, fast)
					if err != nil {
						t.Fatal(err)
					}
					m.(interface{ SetSweepWorkers(int) }).SetSweepWorkers(workers)
					plan, pred, err := m.Optimize(sys)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					pin := sweepPin{
						Tau0Bits: math.Float64bits(plan.Tau0),
						Counts:   plan.Counts,
						Levels:   plan.Levels,
						TimeBits: math.Float64bits(pred.ExpectedTime),
						EffBits:  math.Float64bits(pred.Efficiency),
					}
					if prev, ok := got[key]; ok {
						if !pinEqual(prev, pin) {
							t.Errorf("%s: workers=%d gives %v, workers=1 gave %v", key, workers, pin, prev)
						}
						continue
					}
					got[key] = pin
					if *updatePins {
						continue
					}
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no pin", key)
					} else if !pinEqual(w, pin) {
						t.Errorf("%s workers=%d:\n got %v\nwant %v", key, workers, pin, w)
					}
				}
			}
		}
	}
	if *updatePins {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%d pins checked, file has %d", len(got), len(want))
	}
}

func pinEqual(a, b sweepPin) bool {
	return a.Tau0Bits == b.Tau0Bits && slices.Equal(a.Counts, b.Counts) &&
		slices.Equal(a.Levels, b.Levels) && a.TimeBits == b.TimeBits && a.EffBits == b.EffBits
}
