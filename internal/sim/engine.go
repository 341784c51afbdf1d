package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/system"
)

// cachePad is the room, in bytes, kept free on each side of an engine's
// mutable per-trial state. Campaign workers each drive their own engine,
// and engines built back to back come from the same allocation cache:
// without the room, two engines' PCG states, timer tables and counters
// land on shared 64-byte lines and every event moves a line between
// cores. The adjacent-line prefetcher fetches lines in pairs, hence two
// lines rather than one (DESIGN.md §2.8).
const cachePad = 128

// padded returns a zeroed slice of length and capacity n carved from the
// middle of a larger allocation, with at least cachePad unused bytes on
// each side. The capacity stops at n, so an append that outgrows the
// slice reallocates instead of writing into the room.
func padded[T any](n int) []T {
	var zero T
	k := (cachePad + int(unsafe.Sizeof(zero)) - 1) / int(unsafe.Sizeof(zero))
	buf := make([]T, k+n+k)
	return buf[k : k+n : k+n]
}

// timer is one entry of the engine's timer table. A trial never has more
// than one pending event per source — an arrival per severity, the end of
// the current phase, the end of the background flush — so the table has
// one fixed entry per source instead of a general priority queue. seq
// orders entries armed for the same instant: earlier arming pops first.
type timer struct {
	t     float64
	seq   uint64
	armed bool
}

// store holds one committed checkpoint.
type store struct {
	valid    bool
	progress float64 // useful work at commit time
	pos      int     // pattern interval index to resume at
}

// Engine executes trials of one scenario. It is built once (per worker
// goroutine, typically), validated once, and then reused for any number
// of trials: the timer table, failure-law table, checkpoint stores,
// failure counters and RNG state are recycled between trials, so the
// per-trial hot path performs no heap allocations. An Engine is not
// safe for concurrent use; run one per goroutine.
//
// Results are identical to constructing a fresh engine per trial: Reset
// restores every piece of per-trial state, and the PCG stream for trial
// seed s is the same whether the generator is freshly built or reseeded.
//
// Everything the engine writes during a trial lives between the struct's
// two pads or in a padded table (see cachePad), so engines driven by
// different goroutines never share a cache line. Observers and
// controllers are the caller's to place.
type Engine struct {
	_ [cachePad]byte

	// Immutable after construction.
	scn      Scenario
	laws     []dist.Sampler // per severity, index 0 = severity 1
	maxWall  float64
	observer Observer
	makeCtl  func() PlanController

	// Owned RNG, reseeded per Run; RunRand substitutes a caller stream.
	// The PCG state is written on every draw, so it is embedded rather
	// than allocated beside other objects.
	pcg    rand.PCG
	ownRng rand.Rand
	rng    *rand.Rand

	// Per-trial state, recycled by reset.
	plan       pattern.Plan // current plan; Controller may swap it
	controller PlanController
	err        error // fatal mid-run error (invalid controller plan)

	// timers holds one entry per severity (index sev-1), then the phase
	// entry, then the flush entry; seq numbers arming order. arrival
	// caches the earliest armed severity entry (-1 if none): arrivals
	// only change when one fires, phases and flushes at almost every
	// event.
	timers  []timer
	seq     uint64
	arrival int

	now        float64
	done       float64 // current useful progress (state the next checkpoint would commit)
	pos        int     // pattern position after the last completed interval
	digits     []int   // pos in mixed radix: digit i runs over 0..plan.Counts[i]
	stores     []store // one per used level
	phase      Phase
	phaseStart float64
	phaseLevel int // 1-based system level for checkpoint/restart phases
	restartIdx int // used-level index being read during PhaseRestart

	asyncCapture bool  // current checkpoint phase is an async capture
	flushStore   store // state the in-flight flush will commit

	failures []int // per-severity counters, reused across trials
	res      TrialResult

	_ [cachePad]byte
}

// NewEngine validates the scenario once and builds a reusable engine.
func NewEngine(scn Scenario) (*Engine, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	sys := scn.System
	L := sys.NumLevels()
	e := &Engine{scn: scn, laws: make([]dist.Sampler, L)}
	for sev := 1; sev <= L; sev++ {
		if len(scn.FailureLaws) >= sev && scn.FailureLaws[sev-1] != nil {
			e.laws[sev-1] = scn.FailureLaws[sev-1]
			continue
		}
		rate := sys.LevelRate(sev)
		if rate <= 0 {
			e.laws[sev-1] = nil // severity never fires
			continue
		}
		law, err := dist.NewExponential(rate)
		if err != nil {
			return nil, err
		}
		e.laws[sev-1] = law
	}
	factor := scn.MaxWallFactor
	if factor == 0 {
		factor = DefaultMaxWallFactor
	}
	e.maxWall = factor * sys.BaselineTime
	e.ownRng = *rand.New(&e.pcg)
	e.failures = padded[int](L)
	e.timers = padded[timer](L + 2)
	e.digits = padded[int](len(scn.Plan.Counts))
	e.stores = padded[store](scn.Plan.NumUsed())[:0]
	return e, nil
}

// Observe streams every event of subsequent trials to o (nil detaches).
// Campaigns install one observer per worker engine so observer state
// stays goroutine-local and lock-free.
func (e *Engine) Observe(o Observer) { e.observer = o }

// Control installs an online plan-controller factory. Controllers are
// stateful per trial, so the factory is invoked at the start of every
// Run/RunRand; a nil factory (or a factory returning nil) disables
// control.
func (e *Engine) Control(factory func() PlanController) { e.makeCtl = factory }

// Run simulates one trial drawn from the given seed and returns its
// result. The engine's internal PCG generator is reseeded from the
// seed's raw words, so the stream is byte-identical to
// RunRand(seed.Rand()) without the per-trial generator allocation.
//
// The returned result's Failures slice aliases engine scratch and is
// valid until the next Run/RunRand; callers that retain results across
// trials must copy it.
func (e *Engine) Run(seed rng.Seed) (TrialResult, error) {
	hi, lo := seed.Words()
	e.pcg.Seed(hi, lo)
	return e.RunRand(&e.ownRng)
}

// RunRand simulates one trial using a caller-provided random stream
// (trace replays and tests drive this directly). The same Failures
// aliasing contract as Run applies.
func (e *Engine) RunRand(r *rand.Rand) (TrialResult, error) {
	if r == nil {
		return TrialResult{}, fmt.Errorf("sim: nil random source")
	}
	e.rng = r
	e.reset()
	e.run()
	return e.res, e.err
}

// RunTrial simulates one application execution and returns its result —
// a thin compatibility wrapper over a single-use engine. The caller
// provides the random stream (see internal/rng for reproducible
// per-trial seeding). Campaigns and repeated runs should construct one
// Engine and reuse it instead.
func RunTrial(scn Scenario, r *rand.Rand) (TrialResult, error) {
	e, err := NewEngine(scn)
	if err != nil {
		return TrialResult{}, err
	}
	return e.RunRand(r)
}

// reset recycles all per-trial state and arms the opening events. It
// must leave the engine in exactly the state a freshly-built engine
// would start a trial in.
func (e *Engine) reset() {
	for i := range e.timers {
		e.timers[i] = timer{}
	}
	e.seq, e.arrival = 0, -1
	e.now, e.done = 0, 0
	e.phase, e.phaseStart, e.phaseLevel, e.restartIdx = 0, 0, 0, 0
	e.asyncCapture = false
	e.flushStore = store{}
	e.err = nil
	e.plan = e.scn.Plan
	if e.makeCtl != nil {
		e.controller = e.makeCtl()
	} else {
		e.controller = nil
	}
	e.seek(0)

	n := e.plan.NumUsed()
	if cap(e.stores) < n {
		e.stores = padded[store](n)
	} else {
		e.stores = e.stores[:n]
		for i := range e.stores {
			e.stores[i] = store{}
		}
	}
	for i := range e.failures {
		e.failures[i] = 0
	}
	e.res = TrialResult{Failures: e.failures}

	// Stateful failure laws (trace replays) restart their stream.
	for _, law := range e.laws {
		if rw, ok := law.(dist.Rewinder); ok {
			rw.Rewind()
		}
	}

	// Arm one arrival per severity.
	for sev := 1; sev <= len(e.laws); sev++ {
		e.armFailure(sev)
	}
	e.startCompute()
}

// phaseTimer and flushTimer index the timer table after the per-severity
// entries.
func (e *Engine) phaseTimer() int { return len(e.laws) }
func (e *Engine) flushTimer() int { return len(e.laws) + 1 }

// arm sets timer i to fire at t, superseding whatever it held.
func (e *Engine) arm(i int, t float64) {
	e.timers[i] = timer{t: t, seq: e.seq, armed: true}
	e.seq++
}

// earliest returns the armed timer with the smallest (t, seq) among
// best (an armed index, or -1) and timers[lo:hi], or -1 if none is armed.
func (e *Engine) earliest(best, lo, hi int) int {
	for i := lo; i < hi; i++ {
		tm := &e.timers[i]
		if !tm.armed {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if b := &e.timers[best]; tm.t < b.t || (tm.t == b.t && tm.seq < b.seq) {
			best = i
		}
	}
	return best
}

// next returns the timer that fires next, or -1 when none is armed: the
// armed entry with the smallest (t, seq). That is a total order, so this
// is the entry a binary heap under the same order would pop, ties
// included.
func (e *Engine) next() int {
	return e.earliest(e.arrival, e.phaseTimer(), len(e.timers))
}

// armFailure schedules the next arrival of a severity class.
func (e *Engine) armFailure(sev int) {
	law := e.laws[sev-1]
	if law == nil {
		return
	}
	e.arm(sev-1, e.now+law.Sample(e.rng))
	e.arrival = e.earliest(-1, 0, len(e.laws))
}

// observe reports an event to the observer; callers check for a nil
// observer first, so an unobserved trial pays one branch per event.
func (e *Engine) observe(kind EventKind, level int) {
	e.observer.Observe(Event{
		Time: e.now, Kind: kind, Phase: e.phase, Level: level, Progress: e.done,
	})
}

// startPhase begins a phase of the given duration, superseding the
// pending end of any interrupted phase.
func (e *Engine) startPhase(p Phase, level int, duration float64) {
	e.phase = p
	e.phaseLevel = level
	e.phaseStart = e.now
	e.arm(e.phaseTimer(), e.now+duration)
	if e.observer != nil {
		e.observe(EvPhaseStart, level)
	}
}

// tick advances the pattern odometer digits past one completed τ0
// interval from position pos. It returns the new position and the
// used-level index of the checkpoint that follows: the number of digits
// that carried. A carry out of the top digit wraps the period, which
// ends in a top-level checkpoint.
func tick(digits, counts []int, pos int) (int, int) {
	for i, n := range counts {
		if digits[i] < n {
			digits[i]++
			return pos + 1, i
		}
		digits[i] = 0
	}
	return 0, len(counts)
}

// seek sets the odometer to pattern position pos of the current plan.
func (e *Engine) seek(pos int) {
	e.pos = pos
	if cap(e.digits) < len(e.plan.Counts) {
		e.digits = padded[int](len(e.plan.Counts))
	}
	e.digits = e.digits[:len(e.plan.Counts)]
	setDigits(e.digits, e.plan.Counts, pos)
}

// setDigits writes pattern position pos into the odometer digits, in
// the mixed radix of counts.
func setDigits(digits, counts []int, pos int) {
	for i, n := range counts {
		digits[i] = pos % (n + 1)
		pos /= n + 1
	}
}

// commit writes st to every used level at or below level. A level-i
// checkpoint commits to all levels ≤ i, and used levels ascend, so that
// is a prefix of the store table.
func commit(stores []store, levels []int, level int, st store) {
	for i, lvl := range levels {
		if lvl > level {
			return
		}
		stores[i] = st
	}
}

// computeInterval is the length of the compute phase that starts at
// progress done of an application of baseline tb: τ0, or the work left
// if that is shorter.
func computeInterval(tau0, tb, done float64) float64 {
	if remaining := tb - done; tau0 > remaining {
		return remaining
	}
	return tau0
}

// completes reports whether progress done finishes an application of
// baseline tb; the slack absorbs rounding in the summed intervals.
func completes(done, tb float64) bool { return done >= tb-1e-12 }

// asyncTop reports whether the plan's top-level checkpoints are async
// captures: under async flush, with two or more used levels. The tick
// into a top-level checkpoint is the one that wraps the odometer, so a
// checkpoint is a capture exactly when asyncTop holds and its position
// is 0.
func (e *Engine) asyncTop() bool { return e.scn.AsyncTopFlush && len(e.plan.Levels) >= 2 }

// checkpointCost is how long the checkpoint at used-level index idx
// blocks the application: its level's checkpoint time, or for an async
// capture the next-lower used level's, while the top-level write drains
// in the background.
func checkpointCost(costs []system.Level, levels []int, idx int, capture bool) float64 {
	if capture {
		idx--
	}
	return costs[levels[idx]-1].Checkpoint
}

func (e *Engine) startCompute() {
	e.startPhase(PhaseCompute, 0, computeInterval(e.plan.Tau0, e.scn.System.BaselineTime, e.done))
}

// run drives the event loop until completion or the wall-time cap.
func (e *Engine) run() {
	for {
		i := e.next()
		if i < 0 {
			// No pending events can only mean all severities are
			// failure-free and a phase is always pending; treat
			// defensively as completion of whatever progress exists.
			break
		}
		e.timers[i].armed = false
		e.now = e.timers[i].t
		if e.now >= e.maxWall {
			e.now = e.maxWall
			e.chargePartialPhase()
			e.finish(false)
			if e.observer != nil {
				e.observe(EvCapped, 0)
			}
			return
		}
		switch i {
		case e.phaseTimer():
			if e.advance() {
				if e.err != nil {
					// endCheckpoint aborted the trial on an invalid
					// plan; it stays unterminated.
					return
				}
				e.finish(true)
				if e.observer != nil {
					e.observe(EvComplete, 0)
				}
				return
			}
		case e.flushTimer():
			e.stores[e.plan.NumUsed()-1] = e.flushStore
		default:
			sev := i + 1
			e.res.Failures[sev-1]++
			if e.observer != nil {
				e.observe(EvFailure, sev)
			}
			if e.controller != nil {
				e.controller.OnFailure(e.now, sev)
			}
			e.armFailure(sev)
			e.failure(sev)
		}
	}
	e.finish(e.done >= e.scn.System.BaselineTime)
}

// advance handles the end of the current phase, which the event loop
// has just popped, and then every phase end that follows it for as long
// as the next one is strictly earlier than the earliest pending arrival,
// the armed flush deadline and the wall cap: exactly the events the
// (t, seq) rule would pop next, so the trial is bit-identical to popping
// each phase end through the loop. On an equal time the loop gets the
// event back, and its (t, seq) rule lets the arrival or flush, armed
// before the phase, win the tie. advance returns true when the
// application has finished (or a controller produced an invalid plan).
//
// A trial with no observer and no controller runs its restart ends and
// its compute ⇄ checkpoint phase ends in cruise. Every other phase end
// goes through endPhase, one at a time: the completing compute end, the
// end of an async capture, and every phase end of a trial with an
// observer or a controller.
func (e *Engine) advance() bool {
	// Arrivals change only at failures, so their part of the horizon
	// holds until advance returns.
	horizon := e.maxWall
	if e.arrival >= 0 && e.timers[e.arrival].t < horizon {
		horizon = e.timers[e.arrival].t
	}
	plain := e.observer == nil && e.controller == nil
	for {
		if plain && !e.cruise(horizon) {
			return false
		}
		if e.endPhase() {
			return true
		}
		if !e.popPhase(horizon) {
			return false
		}
	}
}

// cruise is advance's loop for a trial with no observer and no
// controller. Starting with the phase end at e.now, it handles compute
// and checkpoint ends for as long as the next phase end is strictly
// earlier than horizon and the armed flush deadline; it then arms that
// phase end and returns false. It returns true, with the phase end at
// e.now still unhandled, when that end is the compute end that
// completes the application or the end of an async capture: endPhase
// handles those. Only that last one arms or disarms the flush, so the
// flush deadline is read once.
//
// A restart end can only be the first phase end it handles, so a
// prologue handles it (endRestart's rule): it books the restart, rolls
// the application back to the store the restart read, re-seeks the
// odometer there and starts the next compute phase.
//
// The loop has no call site. Go's calling convention saves no registers
// across a call, so a single call in the loop, even a guarded one that
// never runs, puts its state in stack slots; without one, the clock,
// progress, accumulators, odometer position, seq and phase level stay in
// registers. rollback, setDigits, tick, checkpointCost, commit and
// computeInterval are inlined. To spare registers the phase is not a
// variable of its own: level 0 is a compute phase, any other level a
// checkpoint.
func (e *Engine) cruise(horizon float64) bool {
	if f := &e.timers[e.flushTimer()]; f.armed && f.t < horizon {
		horizon = f.t
	}
	levels, counts, costs := e.plan.Levels, e.plan.Counts, e.scn.System.Levels
	digits, stores, async := e.digits[:len(counts)], e.stores[:len(levels)], e.asyncTop()
	tau0, tb := e.plan.Tau0, e.scn.System.BaselineTime
	now, start, done, pos := e.now, e.phaseStart, e.done, e.pos
	useful, ckptOK := e.res.Breakdown.UsefulCompute, e.res.Breakdown.CheckpointOK
	level, seq := e.phaseLevel, e.seq
	pending := false
	if e.phase == PhaseRestart {
		b := &e.res.Breakdown
		b.RestartOK += now - start
		st := stores[e.restartIdx]
		done, useful, b.LostCompute = rollback(done, st.progress, useful, b.LostCompute)
		pos = st.pos
		setDigits(digits, counts, pos)
		level, start, seq = 0, now, seq+1
		end := now + computeInterval(tau0, tb, done)
		if !(end < horizon) {
			e.timers[e.phaseTimer()] = timer{t: end, seq: seq - 1, armed: true}
			goto park
		}
		now = end
	}
	for {
		d := now - start
		var duration float64
		if level == 0 {
			if completes(done+d, tb) {
				pending = true
				break
			}
			useful += d // reclassified to Lost on rollback
			done += d
			var idx int
			pos, idx = tick(digits, counts, pos)
			level = levels[idx]
			duration = checkpointCost(costs, levels, idx, async && pos == 0)
		} else {
			if async && pos == 0 {
				pending = true
				break
			}
			ckptOK += d
			commit(stores, levels, level, store{valid: true, progress: done, pos: pos})
			level = 0
			duration = computeInterval(tau0, tb, done)
		}
		// The next phase starts; its end is armed only on exit.
		start, seq = now, seq+1
		end := now + duration
		if !(end < horizon) {
			e.timers[e.phaseTimer()] = timer{t: end, seq: seq - 1, armed: true}
			break
		}
		now = end
	}
park:
	e.now, e.phaseStart, e.done, e.pos = now, start, done, pos
	e.phase, e.phaseLevel, e.seq = PhaseCompute, level, seq
	if level != 0 {
		e.phase = PhaseCheckpoint
	}
	e.asyncCapture = level != 0 && async && pos == 0
	e.res.Breakdown.UsefulCompute, e.res.Breakdown.CheckpointOK = useful, ckptOK
	return pending
}

// popPhase takes the pending phase end as the next event, setting the
// clock to it, when it is strictly earlier than horizon and the armed
// flush deadline. The flush is read at every call: a checkpoint end with
// an async capture arms it, and a controller's plan switch disarms it.
func (e *Engine) popPhase(horizon float64) bool {
	if f := &e.timers[e.flushTimer()]; f.armed && f.t < horizon {
		horizon = f.t
	}
	p := &e.timers[e.phaseTimer()]
	if !(p.t < horizon) {
		return false
	}
	p.armed = false
	e.now = p.t
	return true
}

// endPhase handles the end of the current phase at e.now and starts the
// phase that follows. It returns true when the application has finished
// (or a controller produced an invalid plan).
func (e *Engine) endPhase() bool {
	switch e.phase {
	case PhaseCompute:
		return e.endCompute()
	case PhaseCheckpoint:
		return e.endCheckpoint()
	}
	e.endRestart()
	return false
}

// endCompute closes a compute phase. Unless the application has
// finished, it starts the checkpoint the odometer selects.
func (e *Engine) endCompute() bool {
	d := e.now - e.phaseStart
	e.res.Breakdown.UsefulCompute += d // reclassified to Lost on rollback
	e.done += d
	if e.observer != nil {
		e.observe(EvPhaseEnd, 0)
	}
	if completes(e.done, e.scn.System.BaselineTime) {
		e.done = e.scn.System.BaselineTime
		return true
	}
	// The odometer now holds the position this checkpoint commits; a
	// failure before the commit rolls back through seek.
	var idx int
	e.pos, idx = tick(e.digits, e.plan.Counts, e.pos)
	e.asyncCapture = e.asyncTop() && e.pos == 0
	e.startPhase(PhaseCheckpoint, e.plan.Levels[idx],
		checkpointCost(e.scn.System.Levels, e.plan.Levels, idx, e.asyncCapture))
	return false
}

// endCheckpoint commits a finished checkpoint, lets the controller
// replan, and starts the next compute phase.
func (e *Engine) endCheckpoint() bool {
	e.res.Breakdown.CheckpointOK += e.now - e.phaseStart
	if e.observer != nil {
		e.observe(EvPhaseEnd, e.phaseLevel)
	}
	st := store{valid: true, progress: e.done, pos: e.pos}
	level := e.phaseLevel
	if e.asyncCapture {
		// Commit only up to the capture level now; the top level commits
		// when the background flush completes. A flush still in flight is
		// superseded by the newer data.
		level = e.plan.Levels[e.plan.NumUsed()-2]
		e.flushStore = st
		e.arm(e.flushTimer(), e.now+e.scn.System.Levels[e.phaseLevel-1].Checkpoint)
		e.asyncCapture = false
	}
	commit(e.stores, e.plan.Levels, level, st)
	if e.controller != nil {
		if p, ok := e.controller.Replan(e.now, e.done); ok {
			if err := e.switchPlan(p); err != nil {
				e.err = err
				e.finish(false)
				return true
			}
		}
	}
	e.startCompute()
	return false
}

// endRestart closes a restart: the application rolls back to the store
// it read and computes again.
func (e *Engine) endRestart() {
	e.res.Breakdown.RestartOK += e.now - e.phaseStart
	if e.observer != nil {
		e.observe(EvPhaseEnd, e.phaseLevel)
	}
	e.rollbackTo(e.stores[e.restartIdx])
	e.startCompute()
}

// chargePartialPhase books the elapsed portion of an interrupted phase
// into the matching failure bucket.
func (e *Engine) chargePartialPhase() {
	d := e.now - e.phaseStart
	switch e.phase {
	case PhaseCompute:
		// Partial computation counts as compute time; the progress it
		// represented is lost implicitly because done is not advanced.
		e.res.Breakdown.UsefulCompute += d
	case PhaseCheckpoint:
		e.res.Breakdown.CheckpointFail += d
	case PhaseRestart:
		e.res.Breakdown.RestartFail += d
	}
}

// rollbackTo restores application state from a committed checkpoint.
func (e *Engine) rollbackTo(st store) {
	b := &e.res.Breakdown
	e.done, b.UsefulCompute, b.LostCompute = rollback(e.done, st.progress, b.UsefulCompute, b.LostCompute)
	e.seek(st.pos)
}

// rollback returns the progress and the useful and lost compute after a
// rollback from progress done to a store that committed progress to:
// the work in between was computed but is lost, so it is reclassified.
func rollback(done, to, useful, lost float64) (float64, float64, float64) {
	if d := done - to; d > 0 {
		useful -= d
		lost += d
	}
	return to, useful, lost
}

// failure handles a severity-s arrival. The recovery phase it starts
// supersedes the interrupted phase's pending end.
func (e *Engine) failure(sev int) {
	e.chargePartialPhase()
	// An in-flight background flush loses its source data.
	e.timers[e.flushTimer()].armed = false

	// The failure destroys checkpoint data at levels below its
	// severity.
	for i, lvl := range e.plan.Levels {
		if lvl < sev {
			e.stores[i].valid = false
		}
	}

	need := sev
	if e.phase == PhaseRestart {
		need = e.nextRestartNeed(sev)
	}
	e.beginRecovery(need)
}

// nextRestartNeed applies the restart policy when a failure of severity
// sev interrupts the in-progress restart.
func (e *Engine) nextRestartNeed(sev int) int {
	cur := e.phaseLevel
	switch e.scn.Policy {
	case EscalatePolicy:
		// Escalate to the next used level above the current one, and
		// at least to the failing severity's level.
		next := cur
		for _, lvl := range e.plan.Levels {
			if lvl > cur {
				next = lvl
				break
			}
		}
		if sev > next {
			next = sev
		}
		return next
	default: // RetryPolicy
		if sev > cur {
			return sev
		}
		return cur
	}
}

// beginRecovery starts a restart from the lowest used level >= need that
// holds a valid checkpoint, or restarts the application from scratch.
func (e *Engine) beginRecovery(need int) {
	for i, lvl := range e.plan.Levels {
		if lvl >= need && e.stores[i].valid {
			e.restartIdx = i
			e.startPhase(PhaseRestart, lvl, e.scn.System.Levels[lvl-1].Restart)
			return
		}
	}
	// No usable checkpoint anywhere: restart from scratch. The paper's
	// short-application study treats this as relaunching the job with
	// no state to read, so no restart read cost is charged.
	e.res.ScratchRestarts++
	e.rollbackTo(store{valid: true, progress: 0, pos: 0})
	e.startCompute()
}

// finish freezes the trial result.
func (e *Engine) finish(completed bool) {
	e.res.Completed = completed
	e.res.WallTime = e.now
	e.res.Progress = e.done
	if completed {
		e.res.Progress = e.scn.System.BaselineTime
	}
	if e.res.WallTime > 0 {
		e.res.Efficiency = e.res.Progress / e.res.WallTime
	} else {
		// Degenerate zero-length application.
		e.res.Efficiency = 1
	}
	// Useful compute must equal final progress; anything beyond it in
	// the bucket is work that was computed but never rolled back nor
	// counted (a partial interval at the cap): classify as lost.
	if excess := e.res.Breakdown.UsefulCompute - e.res.Progress; excess > 1e-9 {
		e.res.Breakdown.UsefulCompute -= excess
		e.res.Breakdown.LostCompute += excess
	}
	if math.IsNaN(e.res.Efficiency) {
		e.res.Efficiency = 0
	}
}

// switchPlan installs a controller-provided plan. The pattern restarts
// at position 0; committed checkpoints keep their progress but resume at
// the new pattern's start.
func (e *Engine) switchPlan(p pattern.Plan) error {
	if err := p.Validate(e.scn.System); err != nil {
		return fmt.Errorf("sim: controller produced invalid plan: %w", err)
	}
	// An in-flight flush belongs to the old plan's level layout.
	e.timers[e.flushTimer()].armed = false
	// Remap stores: keep the best committed progress per new used
	// level (a new level set may drop or add levels; a dropped level's
	// checkpoint data still exists, but the protocol will no longer
	// refresh it — conservatively carry progress for levels that appear
	// in both plans, and for new levels adopt the progress of the
	// nearest old level at or above them, which the SCR commit rule
	// guarantees exists there).
	old := e.stores
	oldLevels := e.plan.Levels
	e.plan = p
	e.seek(0)
	e.stores = padded[store](p.NumUsed())
	for i, lvl := range p.Levels {
		best := store{}
		for j, ol := range oldLevels {
			if ol >= lvl && old[j].valid {
				if !best.valid || old[j].progress > best.progress {
					best = old[j]
				}
			}
		}
		if best.valid {
			e.stores[i] = store{valid: true, progress: best.progress, pos: 0}
		}
	}
	return nil
}
