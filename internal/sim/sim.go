// Package sim is the event-driven HPC resilience simulator the paper
// uses as ground truth (Section IV-B, after [8]). It executes a single
// large application under a pattern-based multilevel checkpointing plan
// on a failure-prone system: failures of L severity classes arrive as
// independent renewal processes (exponential by default) and can strike
// computation, checkpoint writes and restarts alike; recovery follows the
// SCR protocol semantics described in the paper.
//
// Protocol semantics (DESIGN.md §2.6):
//
//   - After each τ0 of computation the plan's pattern odometer selects a
//     checkpoint level; a successful level-u checkpoint commits the
//     current state to every used level <= u (SCR performs the lower
//     checkpoints within the higher one; the configured δ_u is the
//     inclusive cost).
//   - A severity-s failure invalidates stored checkpoints at levels < s
//     and triggers recovery from the lowest used level >= s that still
//     holds a checkpoint; with no such checkpoint the application
//     restarts from scratch (zero progress, no read cost).
//   - A failure of severity s' during a level-u restart retries the same
//     restart when s' <= u (RetryPolicy, the paper's realistic
//     assumption, applied to all techniques in its simulations) or
//     escalates recovery to the next level (EscalatePolicy, Moody's
//     assumption, available for the ablation study).
//   - The application completes when cumulative useful computation
//     reaches T_B; no final checkpoint is required.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/pattern"
	"repro/internal/system"
)

// RestartPolicy selects the failure-during-restart semantics.
type RestartPolicy int

const (
	// RetryPolicy retries the interrupted restart when the new failure
	// is recoverable at the same level (paper Section IV-G).
	RetryPolicy RestartPolicy = iota
	// EscalatePolicy escalates to the next checkpoint level on any
	// failure during a restart (Moody et al.'s assumption).
	EscalatePolicy
)

// Scenario describes one simulated scenario: the trial-level inputs
// only. It is a pure value — no per-trial state, no hooks — so one
// Scenario can be shared by any number of trials, engines and workers.
// Event observers attach to the executor instead: Engine.Observe for
// single trials, Campaign.ObserverFactory for campaigns.
type Scenario struct {
	// System under test. Required.
	System *system.System
	// Plan is the checkpointing strategy to execute. Required.
	Plan pattern.Plan
	// Policy selects restart semantics; the paper's simulations use
	// RetryPolicy for every technique.
	Policy RestartPolicy
	// MaxWallFactor caps a trial at MaxWallFactor·T_B simulated minutes
	// (the paper's sub-1 %-efficiency scenarios never terminate
	// otherwise). 0 means the default of 400.
	MaxWallFactor float64
	// FailureLaws optionally overrides the per-severity inter-arrival
	// laws (index 0 = severity 1). Defaults to exponential processes at
	// the system's severity rates; replace with Weibull laws for the
	// non-memoryless ablation. A nil entry keeps the default for that
	// severity. Every trial that runs the scenario shares the laws, and
	// so does every worker's engine in a campaign, so a law must be safe
	// for concurrent use: one that draws only from the stream it is
	// handed, as Exponential and Weibull do, is.
	FailureLaws []dist.Sampler
	// AsyncTopFlush enables SCR/FTI-style asynchronous flushing of the
	// plan's top-level checkpoint: the application blocks only for the
	// capture to the next-lower used level, then resumes computing
	// while the top-level write drains in the background. Any failure
	// aborts an in-flight flush (the source data is lost), so the
	// top-level store only updates when a flush completes untouched.
	// Ignored for single-level plans (there is no lower level to
	// capture to).
	AsyncTopFlush bool
}

// DefaultMaxWallFactor is the trial cap when Scenario.MaxWallFactor is 0.
const DefaultMaxWallFactor = 400

// maxExpectedArrivals bounds the failure arrivals that a scenario's wall
// cap lets one trial expect. Nothing else bounds a trial's events, and a
// trial takes about 79 ns per arrival (Table I D4), so the limit is about
// a second of engine time per capped trial. The largest scenario the
// repository runs, Table I D4 at the default cap, expects 9.6·10⁴.
const maxExpectedArrivals = 1e7

// wallCap is the trial's wall-time cap in minutes.
func (s *Scenario) wallCap() float64 {
	factor := s.MaxWallFactor
	if factor == 0 {
		factor = DefaultMaxWallFactor
	}
	return factor * s.System.BaselineTime
}

// expectedArrivals is the number of failure arrivals a trial expects
// before its wall cap: the cap times the sum of the per-severity rates,
// 1/mean of each law. A law that reports no positive mean, such as a
// test law that scripts its arrivals, adds nothing.
func (s *Scenario) expectedArrivals() float64 {
	var rate float64
	for sev := 1; sev <= s.System.NumLevels(); sev++ {
		if sev <= len(s.FailureLaws) && s.FailureLaws[sev-1] != nil {
			if m := s.FailureLaws[sev-1].Mean(); m > 0 {
				rate += 1 / m
			}
		} else {
			// Rounded (float64(...)) so that no GOARCH fuses the rate's
			// product into the addition.
			rate += float64(s.System.LevelRate(sev))
		}
	}
	return s.wallCap() * rate
}

// Validate checks the scenario.
func (s *Scenario) Validate() error {
	if s.System == nil {
		return errors.New("sim: nil system")
	}
	if err := s.System.Validate(); err != nil {
		return err
	}
	if err := s.Plan.Validate(s.System); err != nil {
		return err
	}
	if s.MaxWallFactor < 0 {
		return fmt.Errorf("sim: negative wall factor %v", s.MaxWallFactor)
	}
	if len(s.FailureLaws) > s.System.NumLevels() {
		return fmt.Errorf("sim: %d failure laws for %d severities", len(s.FailureLaws), s.System.NumLevels())
	}
	if n := s.expectedArrivals(); !(n <= maxExpectedArrivals) {
		return fmt.Errorf("sim: the wall cap of %g minutes lets a trial expect %.3g failure arrivals, above the limit of %g",
			s.wallCap(), n, float64(maxExpectedArrivals))
	}
	return nil
}

// EventKind labels observer events.
type EventKind int

const (
	// EvPhaseStart marks the start of a compute/checkpoint/restart phase.
	EvPhaseStart EventKind = iota
	// EvPhaseEnd marks the successful end of a phase.
	EvPhaseEnd
	// EvFailure marks a failure arrival.
	EvFailure
	// EvComplete marks application completion.
	EvComplete
	// EvCapped marks a trial aborted at the wall-time cap.
	EvCapped
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvPhaseStart:
		return "phase_start"
	case EvPhaseEnd:
		return "phase_end"
	case EvFailure:
		return "failure"
	case EvComplete:
		return "complete"
	case EvCapped:
		return "capped"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Phase labels the simulator's execution phases.
type Phase int

const (
	// PhaseCompute is a computation interval.
	PhaseCompute Phase = iota
	// PhaseCheckpoint is a checkpoint write.
	PhaseCheckpoint
	// PhaseRestart is a restart read.
	PhaseRestart
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseRestart:
		return "restart"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Event is one observer notification.
type Event struct {
	Time     float64
	Kind     EventKind
	Phase    Phase
	Level    int     // 1-based system level for checkpoint/restart phases; severity for failures
	Progress float64 // useful work completed at event time
}

// Observer receives simulation events.
type Observer interface {
	Observe(Event)
}

// Breakdown partitions a trial's wall-clock time into the paper's
// Figure 3 categories. All values are minutes.
type Breakdown struct {
	// UsefulCompute is computation that counted toward T_B.
	UsefulCompute float64
	// LostCompute is computation that was rolled back and re-done.
	LostCompute float64
	// CheckpointOK is time in checkpoints that completed.
	CheckpointOK float64
	// CheckpointFail is time lost in checkpoints cut short by failures.
	CheckpointFail float64
	// RestartOK is time in restarts that completed.
	RestartOK float64
	// RestartFail is time lost in restarts cut short by failures.
	RestartFail float64
}

// Total returns the sum of all categories (the trial wall time).
func (b Breakdown) Total() float64 {
	return b.UsefulCompute + b.LostCompute + b.CheckpointOK + b.CheckpointFail +
		b.RestartOK + b.RestartFail
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.UsefulCompute += o.UsefulCompute
	b.LostCompute += o.LostCompute
	b.CheckpointOK += o.CheckpointOK
	b.CheckpointFail += o.CheckpointFail
	b.RestartOK += o.RestartOK
	b.RestartFail += o.RestartFail
}

// Scale multiplies every category by f.
func (b *Breakdown) Scale(f float64) {
	b.UsefulCompute *= f
	b.LostCompute *= f
	b.CheckpointOK *= f
	b.CheckpointFail *= f
	b.RestartOK *= f
	b.RestartFail *= f
}

// TrialResult reports one simulated execution.
type TrialResult struct {
	// WallTime is the simulated duration in minutes.
	WallTime float64
	// Completed reports whether the application reached T_B before the
	// wall-time cap.
	Completed bool
	// Progress is the useful work completed (== T_B when Completed).
	Progress float64
	// Efficiency is Progress / WallTime — identical to T_B/WallTime for
	// completed trials and a fair partial estimate for capped ones.
	Efficiency float64
	// Breakdown partitions WallTime into the Figure 3 categories.
	Breakdown Breakdown
	// Failures counts failure arrivals by severity (index 0 = severity
	// 1).
	Failures []int
	// ScratchRestarts counts recoveries that had no usable checkpoint
	// and restarted the application from zero progress.
	ScratchRestarts int
}

// TotalFailures sums Failures across severities.
func (r *TrialResult) TotalFailures() int {
	n := 0
	for _, f := range r.Failures {
		n += f
	}
	return n
}
