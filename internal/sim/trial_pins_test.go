package sim

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/system"
)

var updateTrialPins = flag.Bool("update", false, "rewrite testdata/trial_pins.json from the current engine")

// trialPinTrials is the number of trials pinned per scenario.
const trialPinTrials = 3

// pinScenario is one row of the trial pins: a scenario plus an optional
// plan-controller factory.
type pinScenario struct {
	name string
	scn  Scenario
	ctl  func() PlanController
}

// trialPinScenarios lists every Table I system with a one-level plan (the
// top level at Young's interval) and a multi-level plan (every level,
// two checkpoints of each lower level per period, Young's interval for
// level 1), each under Retry and Escalate with the async top-level
// flush off and on. Three rows on D4's multi-level plan follow: a wall
// cap that cuts some trials short, Weibull failure laws, and a
// PlanController that switches plans mid-trial.
func trialPinScenarios(t *testing.T) []pinScenario {
	t.Helper()
	var rows []pinScenario
	var d4Multi Scenario
	for _, sys := range system.TableI() {
		L := sys.NumLevels()
		one := pattern.Plan{Tau0: math.Sqrt(2 * sys.Levels[L-1].Checkpoint * sys.MTBF), Levels: []int{L}}
		multi := pattern.Plan{Tau0: math.Sqrt(2 * sys.Levels[0].Checkpoint * sys.MTBF)}
		for lvl := 1; lvl <= L; lvl++ {
			multi.Levels = append(multi.Levels, lvl)
			if lvl < L {
				multi.Counts = append(multi.Counts, 2)
			}
		}
		for _, p := range []struct {
			name string
			plan pattern.Plan
		}{{"one", one}, {"multi", multi}} {
			for _, pol := range []struct {
				name   string
				policy RestartPolicy
			}{{"retry", RetryPolicy}, {"escalate", EscalatePolicy}} {
				for _, flush := range []struct {
					name  string
					async bool
				}{{"sync", false}, {"async", true}} {
					name := fmt.Sprintf("%s/%s/%s/%s", sys.Name, p.name, pol.name, flush.name)
					scn := Scenario{System: sys, Plan: p.plan, Policy: pol.policy, AsyncTopFlush: flush.async}
					rows = append(rows, pinScenario{name: name, scn: scn})
					if name == "D4/multi/retry/async" {
						d4Multi = scn
					}
				}
			}
		}
	}

	capped := d4Multi
	capped.MaxWallFactor = 1.45
	rows = append(rows, pinScenario{name: "D4/multi/retry/async/cap", scn: capped})

	weibull := d4Multi
	const shape = 0.7
	for sev := 1; sev <= weibull.System.NumLevels(); sev++ {
		mean := 1 / weibull.System.LevelRate(sev)
		law, err := dist.NewWeibull(mean/math.Gamma(1+1/shape), shape)
		if err != nil {
			t.Fatal(err)
		}
		weibull.FailureLaws = append(weibull.FailureLaws, law)
	}
	rows = append(rows, pinScenario{name: "D4/multi/retry/async/weibull", scn: weibull})

	next := pattern.Plan{Tau0: 2.5, Counts: []int{1}, Levels: []int{1, 2}}
	rows = append(rows, pinScenario{
		name: "D4/multi/retry/async/controller",
		scn:  d4Multi,
		ctl:  func() PlanController { return &switchController{after: 40, plan: next} },
	})
	return rows
}

// digestObserver folds every event into an FNV-64a digest.
type digestObserver struct {
	h      hash.Hash64
	events int
	buf    [40]byte
}

func (d *digestObserver) reset() {
	d.h.Reset()
	d.events = 0
}

func (d *digestObserver) Observe(e Event) {
	binary.LittleEndian.PutUint64(d.buf[0:], uint64(e.Kind))
	binary.LittleEndian.PutUint64(d.buf[8:], uint64(e.Phase))
	binary.LittleEndian.PutUint64(d.buf[16:], uint64(e.Level))
	binary.LittleEndian.PutUint64(d.buf[24:], math.Float64bits(e.Time))
	binary.LittleEndian.PutUint64(d.buf[32:], math.Float64bits(e.Progress))
	_, _ = d.h.Write(d.buf[:]) // hash.Hash writes never fail
	d.events++
}

// resultPin renders every field of a trial result, floats as bit
// patterns.
func resultPin(r TrialResult) string {
	b := r.Breakdown
	return fmt.Sprintf("wall=%016x eff=%016x progress=%016x useful=%016x lost=%016x "+
		"ckpt_ok=%016x ckpt_fail=%016x restart_ok=%016x restart_fail=%016x "+
		"failures=%v scratch=%d completed=%t",
		math.Float64bits(r.WallTime), math.Float64bits(r.Efficiency), math.Float64bits(r.Progress),
		math.Float64bits(b.UsefulCompute), math.Float64bits(b.LostCompute),
		math.Float64bits(b.CheckpointOK), math.Float64bits(b.CheckpointFail),
		math.Float64bits(b.RestartOK), math.Float64bits(b.RestartFail),
		r.Failures, r.ScratchRestarts, r.Completed)
}

// TestTrialGoldenPins pins, trial by trial, the bit patterns of every
// TrialResult field and an FNV-64a digest of the observed event stream
// over the scenarios of trialPinScenarios. The pins were captured from
// the engine that handled every phase end through the generic timer
// loop; any drift in event order or arithmetic shows up as a changed
// line. Each trial runs on an unobserved engine (which pins the result)
// and on an observed one (which pins the event stream and must return
// the same result bits).
func TestTrialGoldenPins(t *testing.T) {
	path := filepath.Join("testdata", "trial_pins.json")
	want := map[string][]string{}
	if !*updateTrialPins {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read pins (run with -update to create): %v", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]string{}
	capped, completed := 0, 0
	for _, row := range trialPinScenarios(t) {
		bare, err := NewEngine(row.scn)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		observed, err := NewEngine(row.scn)
		if err != nil {
			t.Fatal(err)
		}
		d := &digestObserver{h: fnv.New64a()}
		observed.Observe(d)
		if row.ctl != nil {
			bare.Control(row.ctl)
			observed.Control(row.ctl)
		}
		s := rng.Campaign(1, "trial-pins").Scenario(row.name)
		for i := 0; i < trialPinTrials; i++ {
			res, err := bare.Run(s.Trial(i))
			if err != nil {
				t.Fatalf("%s trial %d: %v", row.name, i, err)
			}
			pin := resultPin(res)
			d.reset()
			ores, err := observed.Run(s.Trial(i))
			if err != nil {
				t.Fatalf("%s trial %d (observed): %v", row.name, i, err)
			}
			if op := resultPin(ores); op != pin {
				t.Errorf("%s trial %d: observed engine\n got %s\nwant %s (unobserved)", row.name, i, op, pin)
			}
			got[row.name] = append(got[row.name], fmt.Sprintf("%s events=%d digest=%016x", pin, d.events, d.h.Sum64()))
			if row.scn.MaxWallFactor != 0 {
				if res.Completed {
					completed++
				} else {
					capped++
				}
			}
		}
		if *updateTrialPins {
			continue
		}
		w, ok := want[row.name]
		if !ok {
			t.Errorf("%s: no pin", row.name)
			continue
		}
		if len(w) != trialPinTrials {
			t.Errorf("%s: %d pinned trials, want %d", row.name, len(w), trialPinTrials)
			continue
		}
		for i, g := range got[row.name] {
			if g != w[i] {
				t.Errorf("%s trial %d:\n got %s\nwant %s", row.name, i, g, w[i])
			}
		}
	}
	if capped == 0 || completed == 0 {
		t.Errorf("cap row: %d capped and %d completed trials, want some of each", capped, completed)
	}
	if *updateTrialPins {
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
		t.Errorf("%d scenarios checked, file has %d", len(got), len(want))
	}
}
