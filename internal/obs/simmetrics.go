package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// Breakdown partitions one or more trials' wall time by phase, with
// per-level detail the simulator's own sim.Breakdown does not carry.
// All values are simulated minutes. Level slices are indexed by 0-based
// level (index 0 = level 1) and sized to the highest level seen.
type Breakdown struct {
	// ComputeUseful is computation that contributed new progress
	// (first-time work).
	ComputeUseful float64
	// ComputeRework is computation that was lost to a failure or the
	// wall-time cap, or re-did previously achieved progress.
	ComputeRework float64
	// CheckpointOK is time in checkpoints that committed, by level.
	CheckpointOK []float64
	// CheckpointWasted is time in checkpoints cut short, by level.
	CheckpointWasted []float64
	// RestartOK is time in restarts that completed, by level.
	RestartOK []float64
	// RestartFailed is time in restarts cut short, by level.
	RestartFailed []float64
	// WallTime is the trial wall time (sum over trials after Add).
	WallTime float64
}

func grow(s []float64, n int) []float64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// reuse empties a per-level slice keeping its capacity — the
// observed-trial hot path recycles these between trials (grow appends
// fresh zeros into the retained array), so the steady-state observer
// performs no allocation at all.
func reuse(s []float64) []float64 {
	return s[:0]
}

func addTo(s *[]float64, level int, v float64) {
	*s = grow(*s, level)
	(*s)[level-1] += v
}

// Total returns the sum of every category — by construction equal to
// WallTime up to floating-point accumulation error.
func (b *Breakdown) Total() float64 {
	t := b.ComputeUseful + b.ComputeRework
	for _, v := range b.CheckpointOK {
		t += v
	}
	for _, v := range b.CheckpointWasted {
		t += v
	}
	for _, v := range b.RestartOK {
		t += v
	}
	for _, v := range b.RestartFailed {
		t += v
	}
	return t
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.ComputeUseful += o.ComputeUseful
	b.ComputeRework += o.ComputeRework
	b.CheckpointOK = grow(b.CheckpointOK, len(o.CheckpointOK))
	for i, v := range o.CheckpointOK {
		b.CheckpointOK[i] += v
	}
	b.CheckpointWasted = grow(b.CheckpointWasted, len(o.CheckpointWasted))
	for i, v := range o.CheckpointWasted {
		b.CheckpointWasted[i] += v
	}
	b.RestartOK = grow(b.RestartOK, len(o.RestartOK))
	for i, v := range o.RestartOK {
		b.RestartOK[i] += v
	}
	b.RestartFailed = grow(b.RestartFailed, len(o.RestartFailed))
	for i, v := range o.RestartFailed {
		b.RestartFailed[i] += v
	}
	b.WallTime += o.WallTime
}

// SimMetrics is a sim.Observer that reconstructs per-trial phase-time
// breakdowns and failure statistics from the simulator's event stream,
// and aggregates them across trials into a Registry of counters and
// histograms. One SimMetrics must only observe sequential trials (the
// campaign runner gives every worker goroutine its own via Pool); merge
// shards with Merge.
//
// The per-trial invariant: the reconstructed breakdown partitions the
// trial's wall time, so Last().Total() == Last().WallTime up to
// floating-point accumulation error.
type SimMetrics struct {
	reg *Registry

	// Cached instrument handles (all owned by reg so Merge covers them).
	trials      *Counter
	completed   *Counter
	capped      *Counter
	scratch     *Counter
	escalations *Counter
	failures    []*Counter // by severity
	ckptOK      []*Counter // by level
	ckptWasted  []*Counter
	restartOK   []*Counter
	restartFail []*Counter

	wallHist    *Histogram
	effHist     *Histogram
	usefulHist  *Histogram // per-phase useful compute durations
	reworkHist  *Histogram
	ckptHistOK  []*Histogram
	ckptHistBad []*Histogram
	rstHistOK   []*Histogram
	rstHistBad  []*Histogram

	total Breakdown // across observed trials
	last  Breakdown // the trial in progress / most recently finished

	// Per-trial reconstruction state.
	open          bool
	phase         sim.Phase
	phaseLevel    int
	phaseStart    float64
	startProgress float64
	highWater     float64
	awaitRecovery bool
	failedRestart int // level of the restart a failure interrupted; -1 none
	trialEnded    bool
}

// NewSimMetrics returns a SimMetrics with a private registry.
func NewSimMetrics() *SimMetrics {
	m := &SimMetrics{reg: NewRegistry(), failedRestart: -1}
	m.trials = m.reg.Counter("sim_trials_total")
	m.completed = m.reg.Counter("sim_trials_completed")
	m.capped = m.reg.Counter("sim_trials_capped")
	m.scratch = m.reg.Counter("sim_scratch_restarts_total")
	m.escalations = m.reg.Counter("sim_restart_escalations_total")
	m.wallHist = m.reg.Histogram("sim_trial_wall_minutes")
	m.effHist = m.reg.Histogram("sim_trial_efficiency")
	m.usefulHist = m.reg.Histogram("sim_phase_minutes", "phase", "compute", "outcome", "useful")
	m.reworkHist = m.reg.Histogram("sim_phase_minutes", "phase", "compute", "outcome", "rework")
	return m
}

// Registry exposes the backing registry (for snapshots and merges into
// wider sinks).
func (m *SimMetrics) Registry() *Registry { return m.reg }

// Trials returns the number of finished trials observed.
func (m *SimMetrics) Trials() uint64 { return m.trials.Value() }

// Last returns the breakdown of the most recent trial.
func (m *SimMetrics) Last() Breakdown { return m.last }

// Aggregate returns the breakdown summed over all finished trials.
func (m *SimMetrics) Aggregate() Breakdown { return m.total }

func levelStr(lvl int) string { return strconv.Itoa(lvl) }

func growCounters(s []*Counter, n int, mk func(i int) *Counter) []*Counter {
	for len(s) < n {
		s = append(s, mk(len(s)))
	}
	return s
}

func growHists(s []*Histogram, n int, mk func(i int) *Histogram) []*Histogram {
	for len(s) < n {
		s = append(s, mk(len(s)))
	}
	return s
}

func (m *SimMetrics) failureCounter(sev int) *Counter {
	m.failures = growCounters(m.failures, sev, func(i int) *Counter {
		return m.reg.Counter("sim_failures_total", "severity", levelStr(i+1))
	})
	return m.failures[sev-1]
}

func (m *SimMetrics) ckptCounter(lvl int, ok bool) *Counter {
	if ok {
		m.ckptOK = growCounters(m.ckptOK, lvl, func(i int) *Counter {
			return m.reg.Counter("sim_checkpoints_total", "level", levelStr(i+1), "outcome", "committed")
		})
		return m.ckptOK[lvl-1]
	}
	m.ckptWasted = growCounters(m.ckptWasted, lvl, func(i int) *Counter {
		return m.reg.Counter("sim_checkpoints_total", "level", levelStr(i+1), "outcome", "wasted")
	})
	return m.ckptWasted[lvl-1]
}

func (m *SimMetrics) restartCounter(lvl int, ok bool) *Counter {
	if ok {
		m.restartOK = growCounters(m.restartOK, lvl, func(i int) *Counter {
			return m.reg.Counter("sim_restarts_total", "level", levelStr(i+1), "outcome", "completed")
		})
		return m.restartOK[lvl-1]
	}
	m.restartFail = growCounters(m.restartFail, lvl, func(i int) *Counter {
		return m.reg.Counter("sim_restarts_total", "level", levelStr(i+1), "outcome", "interrupted")
	})
	return m.restartFail[lvl-1]
}

func (m *SimMetrics) ckptHist(lvl int, ok bool) *Histogram {
	outcome := "committed"
	if !ok {
		outcome = "wasted"
	}
	mk := func(oc string) func(i int) *Histogram {
		return func(i int) *Histogram {
			return m.reg.Histogram("sim_phase_minutes", "phase", "checkpoint", "level", levelStr(i+1), "outcome", oc)
		}
	}
	if ok {
		m.ckptHistOK = growHists(m.ckptHistOK, lvl, mk(outcome))
		return m.ckptHistOK[lvl-1]
	}
	m.ckptHistBad = growHists(m.ckptHistBad, lvl, mk(outcome))
	return m.ckptHistBad[lvl-1]
}

func (m *SimMetrics) restartHist(lvl int, ok bool) *Histogram {
	outcome := "completed"
	if !ok {
		outcome = "interrupted"
	}
	mk := func(oc string) func(i int) *Histogram {
		return func(i int) *Histogram {
			return m.reg.Histogram("sim_phase_minutes", "phase", "restart", "level", levelStr(i+1), "outcome", oc)
		}
	}
	if ok {
		m.rstHistOK = growHists(m.rstHistOK, lvl, mk(outcome))
		return m.rstHistOK[lvl-1]
	}
	m.rstHistBad = growHists(m.rstHistBad, lvl, mk(outcome))
	return m.rstHistBad[lvl-1]
}

// resetTrial clears the per-trial state while recycling the breakdown's
// level slices (grow reuses the retained capacity, so steady-state
// trials allocate nothing). A consequence: the slices inside a
// previously returned Last() are only valid until the next trial begins.
func (m *SimMetrics) resetTrial() {
	m.last = Breakdown{
		CheckpointOK:     reuse(m.last.CheckpointOK),
		CheckpointWasted: reuse(m.last.CheckpointWasted),
		RestartOK:        reuse(m.last.RestartOK),
		RestartFailed:    reuse(m.last.RestartFailed),
	}
	m.open = false
	m.highWater = 0
	m.awaitRecovery = false
	m.failedRestart = -1
	m.trialEnded = false
}

// Observe implements sim.Observer.
func (m *SimMetrics) Observe(e sim.Event) {
	if m.trialEnded {
		m.resetTrial()
	}
	switch e.Kind {
	case sim.EvPhaseStart:
		if m.awaitRecovery {
			// The recovery decision is visible in what starts next: a
			// restart at a higher level than the one the failure
			// interrupted is an escalation; compute with no restart
			// phase at all means no usable checkpoint survived.
			if e.Phase == sim.PhaseRestart {
				if m.failedRestart >= 0 && e.Level > m.failedRestart {
					m.escalations.Inc()
				}
			} else {
				m.scratch.Inc()
			}
			m.awaitRecovery = false
			m.failedRestart = -1
		}
		m.open = true
		m.phase = e.Phase
		m.phaseLevel = e.Level
		m.phaseStart = e.Time
		m.startProgress = e.Progress
	case sim.EvPhaseEnd:
		m.closePhase(e.Time, e.Progress, true)
	case sim.EvFailure:
		m.failureCounter(e.Level).Inc()
		if m.open {
			if m.phase == sim.PhaseRestart {
				m.failedRestart = m.phaseLevel
			}
			m.closePhase(e.Time, e.Progress, false)
		}
		m.awaitRecovery = true
	case sim.EvComplete:
		m.endTrial(e, true)
	case sim.EvCapped:
		if m.open {
			m.closePhase(e.Time, e.Progress, false)
		}
		m.endTrial(e, false)
	}
}

// closePhase books the open phase's elapsed time into the matching
// breakdown bucket; ok marks successful completion.
func (m *SimMetrics) closePhase(now, progress float64, ok bool) {
	if !m.open {
		return
	}
	m.open = false
	d := now - m.phaseStart
	switch m.phase {
	case sim.PhaseCompute:
		// Progress advances 1:1 with compute time, so the time split
		// equals the progress split: work below the high-water mark is
		// re-doing lost progress, work above it is new. An interrupted
		// compute phase advanced no progress at all (the simulator only
		// commits progress at phase end), so it is entirely rework.
		useful := progress - m.startProgress
		if hw := m.highWater; m.startProgress < hw {
			useful = progress - hw
		}
		if useful < 0 {
			useful = 0
		}
		if useful > d {
			useful = d
		}
		rework := d - useful
		m.last.ComputeUseful += useful
		m.last.ComputeRework += rework
		if useful > 0 {
			m.usefulHist.Observe(useful)
		}
		if rework > 0 {
			m.reworkHist.Observe(rework)
		}
		if progress > m.highWater {
			m.highWater = progress
		}
	case sim.PhaseCheckpoint:
		lvl := m.phaseLevel
		if ok {
			addTo(&m.last.CheckpointOK, lvl, d)
		} else {
			addTo(&m.last.CheckpointWasted, lvl, d)
		}
		m.ckptCounter(lvl, ok).Inc()
		m.ckptHist(lvl, ok).Observe(d)
	case sim.PhaseRestart:
		lvl := m.phaseLevel
		if ok {
			addTo(&m.last.RestartOK, lvl, d)
		} else {
			addTo(&m.last.RestartFailed, lvl, d)
		}
		m.restartCounter(lvl, ok).Inc()
		m.restartHist(lvl, ok).Observe(d)
	}
}

// endTrial freezes the per-trial breakdown and rolls it into the
// cross-trial aggregates.
func (m *SimMetrics) endTrial(e sim.Event, completed bool) {
	m.last.WallTime = e.Time
	m.trials.Inc()
	if completed {
		m.completed.Inc()
	} else {
		m.capped.Inc()
	}
	m.wallHist.Observe(e.Time)
	if e.Time > 0 {
		m.effHist.Observe(e.Progress / e.Time)
	}
	m.total.Add(m.last)
	m.trialEnded = true
}

// Merge folds another shard's aggregates into m. The other shard must
// not be observing a trial concurrently.
func (m *SimMetrics) Merge(o *SimMetrics) error {
	if o == nil || o == m {
		return nil
	}
	if err := m.reg.Merge(o.reg); err != nil {
		return err
	}
	m.total.Add(o.total)
	return nil
}

// Snapshot returns the registry snapshot.
func (m *SimMetrics) Snapshot() Snapshot { return m.reg.Snapshot() }

// WriteJSON writes the registry snapshot as JSON.
func (m *SimMetrics) WriteJSON(w io.Writer) error { return m.reg.WriteJSON(w) }

// MarshalJSON encodes the registry snapshot, so that a value holding
// metrics (experiments.Cell) carries its counters; a nil *SimMetrics
// still encodes as null.
func (m *SimMetrics) MarshalJSON() ([]byte, error) { return json.Marshal(m.Snapshot()) }

// WriteSummary prints the aggregate phase-time breakdown and failure
// counters as an aligned human-readable table.
func (m *SimMetrics) WriteSummary(w io.Writer) error {
	b := m.total
	total := b.Total()
	share := func(v float64) string {
		if total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%5.1f%%", 100*v/total)
	}
	row := func(name string, v float64) error {
		_, err := fmt.Fprintf(w, "  %-22s %14.3f  %s\n", name, v, share(v))
		return err
	}
	if _, err := fmt.Fprintf(w, "phase breakdown over %d trial(s) (minutes):\n", m.trials.Value()); err != nil {
		return err
	}
	if err := row("compute/useful", b.ComputeUseful); err != nil {
		return err
	}
	if err := row("compute/rework", b.ComputeRework); err != nil {
		return err
	}
	for i, v := range b.CheckpointOK {
		if v > 0 || m.ckptCounter(i+1, true).Value() > 0 {
			if err := row(fmt.Sprintf("checkpoint L%d ok", i+1), v); err != nil {
				return err
			}
		}
	}
	for i, v := range b.CheckpointWasted {
		if v > 0 || m.ckptCounter(i+1, false).Value() > 0 {
			if err := row(fmt.Sprintf("checkpoint L%d wasted", i+1), v); err != nil {
				return err
			}
		}
	}
	for i, v := range b.RestartOK {
		if v > 0 || m.restartCounter(i+1, true).Value() > 0 {
			if err := row(fmt.Sprintf("restart L%d ok", i+1), v); err != nil {
				return err
			}
		}
	}
	for i, v := range b.RestartFailed {
		if v > 0 || m.restartCounter(i+1, false).Value() > 0 {
			if err := row(fmt.Sprintf("restart L%d interrupted", i+1), v); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "  %-22s %14.3f  (wall %.3f)\n", "total", total, b.WallTime); err != nil {
		return err
	}
	fails := make([]uint64, len(m.failures))
	for i, c := range m.failures {
		fails[i] = c.Value()
	}
	_, err := fmt.Fprintf(w, "failures by severity: %v  escalations=%d scratch=%d completed=%d/%d\n",
		fails, m.escalations.Value(), m.scratch.Value(), m.completed.Value(), m.trials.Value())
	return err
}

// Pool hands out one SimMetrics shard per worker goroutine and merges
// them after a run. The factory method is safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	shards []*SimMetrics
}

// Observer implements the campaign runner's per-worker observer factory.
func (p *Pool) Observer(worker int) sim.Observer {
	m := NewSimMetrics()
	p.mu.Lock()
	p.shards = append(p.shards, m)
	p.mu.Unlock()
	return m
}

// Merged merges every shard into a fresh SimMetrics.
func (p *Pool) Merged() (*SimMetrics, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := NewSimMetrics()
	for _, s := range p.shards {
		if err := out.Merge(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// multi fans one event stream out to several observers.
type multi []sim.Observer

// Observe implements sim.Observer.
func (m multi) Observe(e sim.Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi returns an observer that forwards every event to each of obs
// (nil entries are skipped).
func Multi(obs ...sim.Observer) sim.Observer {
	out := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}
