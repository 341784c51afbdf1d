package sim

import (
	"math"
	"math/rand/v2"
	"unsafe"

	"repro/internal/dist"
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
// different goroutines never share a cache line. Observers are the
// caller's to place.
type Engine struct {
	_ [cachePad]byte

	// Immutable after construction.
	scn  Scenario
	laws []dist.Sampler // per severity, index 0 = severity 1
	// units holds, per severity, the law if its draw is FromUnit of one
	// unit exponential (a dist.Exponential or dist.Weibull), else nil.
	units []unitLaw
	// rates holds, per severity, the rate of a dist.Exponential law, else
	// 0: cruise draws those arrivals itself.
	rates []float64
	// maxFill is the most unit exponentials one fill draws: len(ahead),
	// or 1 when a law outside units draws from the stream too.
	maxFill  int
	maxWall  float64
	observer Observer

	// The trial's random stream, reseeded per Run. The PCG state is
	// written on every draw, so it is embedded rather than allocated
	// beside other objects.
	pcg rand.PCG
	rng rand.Rand

	// Per-trial state, recycled by reset.
	//
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

	// ahead[aheadAt:aheadN] are unit exponentials drawn ahead of the
	// arrivals they will time, in arming order. A fill draws fill of
	// them; fill doubles after each fill up to maxFill.
	ahead           [16]float64
	aheadAt, aheadN int
	fill            int

	_ [cachePad]byte
}

// unitLaw is a failure law whose Sample(src) is, bit for bit,
// FromUnit(dist.UnitExp(src.Float64())).
type unitLaw interface {
	FromUnit(x float64) float64
}

// NewEngine validates the scenario once and builds a reusable engine.
func NewEngine(scn Scenario) (*Engine, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	sys := scn.System
	L := sys.NumLevels()
	e := &Engine{scn: scn, laws: make([]dist.Sampler, L), units: make([]unitLaw, L), rates: make([]float64, L)}
	e.maxFill = len(e.ahead)
	for sev := 1; sev <= L; sev++ {
		law := dist.Sampler(nil) // nil: the severity never fires
		if len(scn.FailureLaws) >= sev && scn.FailureLaws[sev-1] != nil {
			law = scn.FailureLaws[sev-1]
		} else if rate := sys.LevelRate(sev); rate > 0 {
			exp, err := dist.NewExponential(rate)
			if err != nil {
				return nil, err
			}
			law = exp
		}
		e.laws[sev-1] = law
		// Only these two concrete types: a type that embeds one of them
		// gets FromUnit but may sample differently.
		switch law := law.(type) {
		case nil:
		case dist.Exponential:
			e.units[sev-1], e.rates[sev-1] = law, law.Rate()
		case dist.Weibull:
			e.units[sev-1] = law
		default:
			// It draws at arm time, so nothing may be drawn ahead of it.
			e.maxFill = 1
		}
	}
	e.maxWall = scn.wallCap()
	e.rng = *rand.New(&e.pcg)
	e.failures = padded[int](L)
	e.timers = padded[timer](L + 2)
	e.digits = padded[int](len(scn.Plan.Counts))
	e.stores = padded[store](scn.Plan.NumUsed())
	return e, nil
}

// Observe streams every event of subsequent trials to o (nil detaches).
// Campaigns install one observer per worker engine so observer state
// stays goroutine-local and lock-free.
func (e *Engine) Observe(o Observer) { e.observer = o }

// Run simulates one trial drawn from the given seed and returns its
// result. The engine's PCG generator is reseeded from the seed's raw
// words, so the trial draws the stream of seed.Rand() without allocating
// a generator. Run draws the unit exponentials of exponential and
// Weibull laws ahead, up to 16 at a time, in the order that sampling
// every law at arm time would take them, so the engine's stream may end
// a few draws past the trial's last arrival. The error is always nil: a
// validated scenario cannot fail mid-trial.
//
// The returned result's Failures slice aliases engine scratch and is
// valid until the next Run; callers that retain results across trials
// must copy it.
func (e *Engine) Run(seed rng.Seed) (TrialResult, error) {
	return *e.runSeed(seed), nil
}

// runSeed is Run without the copy: it returns the engine's own result,
// which the next trial overwrites. The campaign runner consumes it in
// place.
func (e *Engine) runSeed(seed rng.Seed) *TrialResult {
	hi, lo := seed.Words()
	e.pcg.Seed(hi, lo)
	e.reset()
	e.run()
	return &e.res
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
	e.pos = 0
	for i := range e.digits {
		e.digits[i] = 0
	}
	for i := range e.stores {
		e.stores[i] = store{}
	}
	for i := range e.failures {
		e.failures[i] = 0
	}
	e.res = TrialResult{Failures: e.failures}
	e.aheadAt, e.aheadN, e.fill = 0, 0, min(2, e.maxFill)

	// Arm one arrival per severity that fires.
	for i, law := range e.laws {
		if law != nil {
			e.reserve(i)
			e.armFailure(i + 1)
		}
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

// reserve disarms timer i and gives it the next seq, for armFailure to
// arm later: an arrival takes its place in the arming order before the
// recovery phase that its failure starts, and is drawn after it.
func (e *Engine) reserve(i int) {
	e.timers[i] = timer{seq: e.seq}
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

// armFailure draws the next arrival of severity sev and arms its timer
// with the seq that reserve gave it. cruise arms an exponential law's
// arrival in place, with the same expression, while ahead holds a unit
// exponential.
func (e *Engine) armFailure(sev int) {
	tm := &e.timers[sev-1]
	tm.t, tm.armed = e.now+e.sample(sev), true
	e.arrival = e.earliest(-1, 0, len(e.laws))
}

// sample draws severity sev's next inter-arrival time. A unit law maps
// the next unit exponential drawn ahead; any other law samples the
// stream itself. Every law takes its uniforms in arming order, so the
// draws are those of sampling every law at arm time.
func (e *Engine) sample(sev int) float64 {
	u := e.units[sev-1]
	if u == nil {
		return e.laws[sev-1].Sample(&e.rng)
	}
	if e.aheadAt == e.aheadN {
		e.refill()
	}
	x := e.ahead[e.aheadAt]
	e.aheadAt++
	return u.FromUnit(x)
}

// refill draws the next fill of unit exponentials. The logs of one fill
// do not depend on each other, so the processor overlaps them.
func (e *Engine) refill() {
	n := e.fill
	for i := range e.ahead[:n] {
		e.ahead[i] = dist.UnitExp(e.rng.Float64())
	}
	e.aheadAt, e.aheadN = 0, n
	if n < e.maxFill {
		e.fill = 2 * n
	}
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

// setDigits writes pattern position pos into the odometer digits, in
// the mixed radix of counts.
func setDigits(digits, counts []int, pos int) {
	for i, n := range counts {
		digits[i] = pos % (n + 1)
		pos /= n + 1
	}
}

// reseek moves the odometer from position pos to position to and
// returns to. The digits are a function of the position, so an
// unchanged position keeps them.
func reseek(digits, counts []int, pos, to int) int {
	if to != pos {
		setDigits(digits, counts, to)
	}
	return to
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
func (e *Engine) asyncTop() bool { return e.scn.AsyncTopFlush && len(e.scn.Plan.Levels) >= 2 }

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
	e.startPhase(PhaseCompute, 0, computeInterval(e.scn.Plan.Tau0, e.scn.System.BaselineTime, e.done))
}

// run drives the event loop until completion or the wall-time cap. In a
// trial with no observer, advance takes every phase end and every
// arrival before the cap, and cruise, which it drives, draws most
// exponential arrivals' next times, so the loop pops only flush
// completions and the cap. In an observed trial the loop pops every
// event, and steps handles its phase ends.
func (e *Engine) run() {
	plain := e.observer == nil
	for {
		if plain && e.advance() {
			e.finish(true)
			return
		}
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
			if e.steps() {
				e.finish(true)
				if e.observer != nil {
					e.observe(EvComplete, 0)
				}
				return
			}
		case e.flushTimer():
			e.stores[e.scn.Plan.NumUsed()-1] = e.flushStore
		default:
			sev := i + 1
			e.res.Failures[sev-1]++
			if e.observer != nil {
				e.observe(EvFailure, sev)
			}
			e.failure(sev)
			e.armFailure(sev)
		}
	}
	e.finish(e.done >= e.scn.System.BaselineTime)
}

// advance runs a trial with no observer for as long as its next event is
// a phase end or an arrival before the wall cap. cruise handles those
// events and draws the next arrival of an exponential law while a unit
// exponential is drawn ahead; advance draws the next arrival of each
// severity that cruise hands back (a law of another kind, or an empty
// buffer, which refill fills), and passes to endPhase each phase end
// that cruise leaves. It returns true when the application has
// finished, and false when the next event is a flush completion or the
// cap, which the event loop pops.
func (e *Engine) advance() bool {
	for {
		switch sev := e.cruise(); {
		case sev > 0:
			e.armFailure(sev)
		case sev < 0:
			if e.endPhase() {
				return true
			}
		default:
			return false
		}
	}
}

// steps handles the end of the current phase, which the event loop has
// just popped, and then every phase end that follows it for as long as
// the next one is strictly earlier than the earliest pending arrival,
// the armed flush deadline and the wall cap: exactly the events the
// (t, seq) rule would pop next. On an equal time the loop gets the event
// back, and its (t, seq) rule lets the arrival or flush, armed before
// the phase, win the tie. It runs the phase ends of observed trials, one
// step each, and returns true when the application has finished.
func (e *Engine) steps() bool {
	// Arrivals change only at failures, so their part of the horizon
	// holds until steps returns.
	horizon := e.maxWall
	if e.arrival >= 0 && e.timers[e.arrival].t < horizon {
		horizon = e.timers[e.arrival].t
	}
	for {
		if e.endPhase() {
			return true
		}
		if !e.popPhase(horizon) {
			return false
		}
	}
}

// cruise is the call-free loop of a trial with no observer. It takes the
// trial's next events in (t, seq) order for as long as each is a phase
// end or an arrival before the wall cap. Every arrival and the flush
// were armed before the current phase, so a phase end goes first only
// when it is strictly earlier than the earliest arrival, the armed flush
// deadline and the cap, and an arrival goes first when it is no later
// than the flush. It handles an arrival with
// failure's rules (charge, invalidate, restartNeed, recoveryIndex,
// rollback), which start the recovery phase, and then draws the
// arrival's next time itself when it can: when the severity's law is a
// dist.Exponential and ahead still holds a unit exponential, it arms the
// timer, whose seq was reserved before the recovery phase's, as
// armFailure would, and goes on. cruise returns:
//   - a severity s > 0 when it has handled an arrival of severity s at
//     e.now but left its next time undrawn, because the law is not
//     exponential or ahead is empty: the caller draws it (armFailure);
//   - -1, with the phase end at e.now still unhandled, when that end is
//     the compute end that completes the application or the end of an
//     async capture: endPhase handles those;
//   - 0 when the next event is a flush completion or the cap.
//
// On return the phase timer holds the current phase's end, disarmed
// when that end is pending.
//
// Only a failure and an async capture end change the arrivals or the
// flush. An async capture end ends the call. A failure disarms the flush
// and changes one arrival, so after drawing it cruise rescans the
// arrivals for the earliest and rebuilds the horizon from it and the
// cap. A restart starts only at a failure, so a restart end can only be
// the first phase end after the call starts or after a failure, and a
// prologue handles it (endRestart's rule): it books the restart, rolls
// the application back to the store the restart read, re-seeks the
// odometer there and starts the next compute phase.
//
// cruise has no call site. Go's calling convention saves no registers
// across a call, so a single call, even a guarded one that never runs,
// puts the loop's state in stack slots; without one, the clock,
// progress, accumulators, odometer position, seq and phase level stay in
// registers. rollback, reseek, tick, checkpointCost, commit,
// computeInterval, earliest and the failure rules are inlined. To spare
// registers the phase is not a variable of its own: level 0 is a compute
// phase, a positive level a checkpoint, and a negative one a restart
// reading level −level. For the same reason each pass reads the plan
// from the engine afresh, and the failure rules read their own copies:
// no slice of the phase loop lives on across a failure and its draw.
func (e *Engine) cruise() int {
	horizon := e.maxWall
	if a := e.arrival; a >= 0 && e.timers[a].t < horizon {
		horizon = e.timers[a].t
	}
	if f := &e.timers[e.flushTimer()]; f.armed && f.t < horizon {
		horizon = f.t
	}
	now, start, done, pos := e.now, e.phaseStart, e.done, e.pos
	useful, ckptOK := e.res.Breakdown.UsefulCompute, e.res.Breakdown.CheckpointOK
	level, seq := e.phaseLevel, e.seq
	if e.phase == PhaseRestart {
		level = -level
	}
	end := e.timers[e.phaseTimer()].t
	var sev int
loop:
	for {
		levels, counts, costs := e.scn.Plan.Levels, e.scn.Plan.Counts, e.scn.System.Levels
		digits, stores, async := e.digits[:len(counts)], e.stores[:len(levels)], e.asyncTop()
		tau0, tb := e.scn.Plan.Tau0, e.scn.System.BaselineTime
		if level < 0 && end < horizon {
			now = end
			b := &e.res.Breakdown
			b.RestartOK += now - start
			st := stores[e.restartIdx]
			done, useful, b.LostCompute = rollback(done, st.progress, useful, b.LostCompute)
			pos = reseek(digits, counts, pos, st.pos)
			level, start, seq = 0, now, seq+1
			end = now + computeInterval(tau0, tb, done)
		}
		for end < horizon {
			now = end
			d := now - start
			var duration float64
			if level == 0 {
				if completes(done+d, tb) {
					sev = -1 // the phase end at now is pending
					break loop
				}
				useful += d // reclassified to Lost on rollback
				done += d
				var idx int
				pos, idx = tick(digits, counts, pos)
				level = levels[idx]
				// With pos == 0 first the compiler tests without a
				// branch, which keeps the test out of a stack slot.
				duration = checkpointCost(costs, levels, idx, pos == 0 && async)
			} else {
				if async && pos == 0 {
					sev = -1
					break loop
				}
				ckptOK += d
				commit(stores, levels, level, store{valid: true, progress: done, pos: pos})
				level = 0
				duration = computeInterval(tau0, tb, done)
			}
			// The next phase starts; its end is armed only on exit.
			start, seq = now, seq+1
			end = now + duration
		}
		a := e.arrival
		if a < 0 || e.timers[a].t != horizon || horizon >= e.maxWall {
			sev = 0 // a flush completion or the cap comes next
			break
		}
		// The arrival comes next: failure's rules, on the locals.
		now = horizon
		levels, stores = e.scn.Plan.Levels, e.stores[:len(e.scn.Plan.Levels)]
		b := &e.res.Breakdown
		e.res.Failures[a]++
		useful, b.CheckpointFail, b.RestartFail = charge(phaseOf(level), now-start, useful, b.CheckpointFail, b.RestartFail)
		e.timers[e.flushTimer()].armed = false
		invalidate(stores, levels, a+1)
		need := a + 1
		if level < 0 {
			need = restartNeed(e.scn.Policy, levels, -level, a+1)
		}
		e.timers[a], seq = timer{seq: seq}, seq+1 // reserve
		if i := recoveryIndex(stores, levels, need); i >= 0 {
			e.restartIdx = i
			level = -levels[i]
			end = now + e.scn.System.Levels[levels[i]-1].Restart
		} else {
			e.res.ScratchRestarts++
			done, useful, b.LostCompute = rollback(done, 0, useful, b.LostCompute)
			pos = reseek(e.digits[:len(e.scn.Plan.Counts)], e.scn.Plan.Counts, pos, 0)
			level = 0
			end = now + computeInterval(e.scn.Plan.Tau0, e.scn.System.BaselineTime, done)
		}
		start, seq = now, seq+1
		rate := e.rates[a]
		if rate == 0 || e.aheadAt == e.aheadN {
			sev = a + 1 // the caller draws the next arrival
			break
		}
		// The next arrival, as armFailure draws it: Exponential's FromUnit
		// of the next unit exponential drawn ahead.
		e.timers[a].t, e.timers[a].armed = now+e.ahead[e.aheadAt]/rate, true
		e.aheadAt++
		e.arrival = e.earliest(-1, 0, len(e.laws))
		horizon = e.maxWall // the failure disarmed the flush
		if t := e.timers[e.arrival].t; t < horizon {
			horizon = t
		}
	}
	e.timers[e.phaseTimer()] = timer{t: end, seq: seq - 1, armed: sev >= 0}
	e.now, e.phaseStart, e.done, e.pos, e.seq = now, start, done, pos, seq
	e.res.Breakdown.UsefulCompute, e.res.Breakdown.CheckpointOK = useful, ckptOK
	e.phase, e.phaseLevel = phaseOf(level), max(level, -level)
	e.asyncCapture = level > 0 && e.asyncTop() && pos == 0
	return sev
}

// phaseOf is the phase that cruise encodes as level: 0 is a compute
// phase, a positive level a checkpoint, a negative one a restart.
func phaseOf(level int) Phase {
	switch {
	case level > 0:
		return PhaseCheckpoint
	case level < 0:
		return PhaseRestart
	}
	return PhaseCompute
}

// popPhase takes the pending phase end as the next event, setting the
// clock to it, when it is strictly earlier than horizon and the armed
// flush deadline. The flush is read at every call: a checkpoint end with
// an async capture arms it.
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
// phase that follows. It returns true when the application has finished.
func (e *Engine) endPhase() bool {
	switch e.phase {
	case PhaseCompute:
		return e.endCompute()
	case PhaseCheckpoint:
		e.endCheckpoint()
	default:
		e.endRestart()
	}
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
	// failure before the commit rolls back through reseek.
	var idx int
	e.pos, idx = tick(e.digits, e.scn.Plan.Counts, e.pos)
	e.asyncCapture = e.asyncTop() && e.pos == 0
	e.startPhase(PhaseCheckpoint, e.scn.Plan.Levels[idx],
		checkpointCost(e.scn.System.Levels, e.scn.Plan.Levels, idx, e.asyncCapture))
	return false
}

// endCheckpoint commits a finished checkpoint and starts the next
// compute phase.
func (e *Engine) endCheckpoint() {
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
		level = e.scn.Plan.Levels[e.scn.Plan.NumUsed()-2]
		e.flushStore = st
		e.arm(e.flushTimer(), e.now+e.scn.System.Levels[e.phaseLevel-1].Checkpoint)
		e.asyncCapture = false
	}
	commit(e.stores, e.scn.Plan.Levels, level, st)
	e.startCompute()
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
	b := &e.res.Breakdown
	b.UsefulCompute, b.CheckpointFail, b.RestartFail = charge(e.phase, e.now-e.phaseStart,
		b.UsefulCompute, b.CheckpointFail, b.RestartFail)
}

// charge books d, the elapsed part of an interrupted phase p, into the
// matching bucket and returns the useful compute, failed checkpoint and
// failed restart totals. Partial computation counts as compute time; the
// progress it represented is lost implicitly because done is not
// advanced.
func charge(p Phase, d, useful, ckptFail, restartFail float64) (float64, float64, float64) {
	switch p {
	case PhaseCompute:
		useful += d
	case PhaseCheckpoint:
		ckptFail += d
	case PhaseRestart:
		restartFail += d
	}
	return useful, ckptFail, restartFail
}

// rollbackTo restores application state from a committed checkpoint.
func (e *Engine) rollbackTo(st store) {
	b := &e.res.Breakdown
	e.done, b.UsefulCompute, b.LostCompute = rollback(e.done, st.progress, b.UsefulCompute, b.LostCompute)
	e.pos = reseek(e.digits, e.scn.Plan.Counts, e.pos, st.pos)
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

// failure handles a severity-sev arrival at e.now. The recovery phase it
// starts supersedes the interrupted phase's pending end. The arrival's
// timer gets its seq before the recovery phase's; the caller then draws
// its next time (armFailure). cruise applies the same rules.
func (e *Engine) failure(sev int) {
	e.chargePartialPhase()
	// An in-flight background flush loses its source data.
	e.timers[e.flushTimer()].armed = false
	invalidate(e.stores, e.scn.Plan.Levels, sev)
	need := sev
	if e.phase == PhaseRestart {
		need = restartNeed(e.scn.Policy, e.scn.Plan.Levels, e.phaseLevel, sev)
	}
	e.reserve(sev - 1)
	e.beginRecovery(need)
}

// invalidate marks invalid the stores of the used levels below severity
// sev: a severity-sev failure destroys the checkpoint data there.
func invalidate(stores []store, levels []int, sev int) {
	for i, lvl := range levels {
		if lvl < sev {
			stores[i].valid = false
		}
	}
}

// restartNeed applies the restart policy when a failure of severity sev
// interrupts a restart that reads level cur, and returns the level the
// next recovery needs.
func restartNeed(policy RestartPolicy, levels []int, cur, sev int) int {
	if policy == EscalatePolicy {
		// Escalate to the next used level above the current one, and
		// at least to the failing severity's level.
		next := cur
		for _, lvl := range levels {
			if lvl > cur {
				next = lvl
				break
			}
		}
		return max(next, sev)
	}
	// RetryPolicy.
	return max(cur, sev)
}

// recoveryIndex returns the used-level index of the lowest used level
// >= need that holds a valid checkpoint, or -1 if there is none.
func recoveryIndex(stores []store, levels []int, need int) int {
	for i, lvl := range levels {
		if lvl >= need && stores[i].valid {
			return i
		}
	}
	return -1
}

// beginRecovery starts a restart from the lowest used level >= need that
// holds a valid checkpoint, or restarts the application from scratch.
func (e *Engine) beginRecovery(need int) {
	if i := recoveryIndex(e.stores, e.scn.Plan.Levels, need); i >= 0 {
		lvl := e.scn.Plan.Levels[i]
		e.restartIdx = i
		e.startPhase(PhaseRestart, lvl, e.scn.System.Levels[lvl-1].Restart)
		return
	}
	// No usable checkpoint anywhere: restart from scratch. The paper's
	// short-application study treats this as relaunching the job with
	// no state to read, so no restart read cost is charged.
	e.res.ScratchRestarts++
	e.rollbackTo(store{valid: true})
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
