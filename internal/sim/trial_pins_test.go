package sim

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
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

// pinScenario is one row of the trial pins.
type pinScenario struct {
	name string
	scn  Scenario
}

// trialPinScenarios lists every Table I system with a one-level plan (the
// top level at Young's interval) and a multi-level plan (every level,
// two checkpoints of each lower level per period, Young's interval for
// level 1), each under Retry and Escalate with the async top-level
// flush off and on. Three rows on D4's multi-level plan follow: a wall
// cap that cuts some trials short, Weibull failure laws, and a Weibull
// law for severity 1 beside the default exponential for severity 2.
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

	// Severity 1 Weibull, severity 2 the system's default exponential
	// law: the two laws draw from one stream, in arming order.
	mixed := d4Multi
	mixed.FailureLaws = weibull.FailureLaws[:1]
	rows = append(rows, pinScenario{name: "D4/multi/retry/async/mixed", scn: mixed})
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

// armTimeLaw hides a failure law's FromUnit from the engine, which then
// samples the law when it arms an arrival and draws nothing ahead.
type armTimeLaw struct{ law dist.Sampler }

func (a armTimeLaw) Sample(src *rand.Rand) float64 { return a.law.Sample(src) }
func (a armTimeLaw) Mean() float64                 { return a.law.Mean() }

// armTime returns scn with every law that fires wrapped in armTimeLaw:
// the scenario's own law, or the default exponential law at the system's
// rate.
func armTime(t *testing.T, scn Scenario) Scenario {
	t.Helper()
	laws := make([]dist.Sampler, scn.System.NumLevels())
	for sev := 1; sev <= len(laws); sev++ {
		if sev <= len(scn.FailureLaws) && scn.FailureLaws[sev-1] != nil {
			laws[sev-1] = armTimeLaw{scn.FailureLaws[sev-1]}
		} else if rate := scn.System.LevelRate(sev); rate > 0 {
			exp, err := dist.NewExponential(rate)
			if err != nil {
				t.Fatal(err)
			}
			laws[sev-1] = armTimeLaw{exp}
		}
	}
	scn.FailureLaws = laws
	return scn
}

// TestTrialGoldenPins pins, trial by trial, the bit patterns of every
// TrialResult field and an FNV-64a digest of the observed event stream
// over the scenarios of trialPinScenarios. The pins were captured from
// the engine that handled every phase end through the generic timer
// loop; any drift in event order or arithmetic shows up as a changed
// line. Each trial runs on an unobserved engine (which pins the result),
// on an observed one (which pins the event stream and must return the
// same result bits), and on a third, unobserved engine whose laws are
// wrapped in armTimeLaw, which must return the same bits too. There
// every arrival draws its uniform when it is armed: nothing is drawn
// ahead, and cruise draws no arrival in its loop, so armFailure draws
// every one. That sets the draw-ahead fills, and cruise's in-loop draw,
// against sampling at arm time on every row. The third leg compares with
// the first, not with the file, so it holds under -update too.
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
		armed, err := NewEngine(armTime(t, row.scn))
		if err != nil {
			t.Fatal(err)
		}
		d := &digestObserver{h: fnv.New64a()}
		observed.Observe(d)
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
			ares, err := armed.Run(s.Trial(i))
			if err != nil {
				t.Fatalf("%s trial %d (arm time): %v", row.name, i, err)
			}
			if ap := resultPin(ares); ap != pin {
				t.Errorf("%s trial %d: laws sampled at arm time\n got %s\nwant %s (drawn ahead)", row.name, i, ap, pin)
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
