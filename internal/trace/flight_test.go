package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// feedTrial streams a minimal synthetic trial into r: a compute phase
// and a terminal event at time makespan.
func feedTrial(r *FlightRecorder, makespan float64) {
	r.Observe(sim.Event{Time: 0, Kind: sim.EvPhaseStart, Phase: sim.PhaseCompute})
	r.Observe(sim.Event{Time: makespan, Kind: sim.EvPhaseEnd, Phase: sim.PhaseCompute, Progress: makespan})
	r.Observe(sim.Event{Time: makespan, Kind: sim.EvComplete, Progress: makespan})
}

// The ring keeps the streams of the last 8 trials; uniform makespans
// are never held.
func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder()
	for i := 0; i < 30; i++ {
		r.BeginTrial(i)
		feedTrial(r, 1)
	}
	streams := r.Streams(0)
	if len(streams) != 8 {
		t.Fatalf("ring kept %d streams, want 8", len(streams))
	}
	seen := map[int]bool{}
	for _, s := range streams {
		if s.Held {
			t.Fatalf("unexpected held stream %+v", s)
		}
		if len(s.Records) != 3 {
			t.Fatalf("stream %d has %d records, want 3", s.Trial, len(s.Records))
		}
		seen[s.Trial] = true
	}
	for want := 22; want < 30; want++ {
		if !seen[want] {
			t.Fatalf("ring lost trial %d; kept %v", want, seen)
		}
	}
	if r.Held() != 0 {
		t.Fatalf("held = %d, want 0", r.Held())
	}
}

// A makespan beyond the running p99 is held once 20 trials have ended,
// and not before.
func TestFlightRecorderQuantileHold(t *testing.T) {
	for _, ended := range []int{19, 20} {
		r := NewFlightRecorder()
		for i := 0; i < ended; i++ {
			r.BeginTrial(i)
			feedTrial(r, 1)
		}
		r.BeginTrial(ended)
		feedTrial(r, 100) // far beyond p99 of the 1.0s seen so far
		if ended < 20 {
			if r.Held() != 0 {
				t.Fatalf("outlier after %d trials held: held = %d", ended, r.Held())
			}
			continue
		}
		if r.Held() != 1 {
			t.Fatalf("outlier after %d trials not held: held = %d", ended, r.Held())
		}
		streams := r.Streams(0)
		if !streams[0].Held || streams[0].Trial != ended || !strings.Contains(streams[0].Reason, "beyond p99") {
			t.Fatalf("held stream = %+v", streams[0])
		}
	}
}

func TestFlightRecorderJudgeHold(t *testing.T) {
	calls := 0
	r := NewFlightRecorder()
	r.SetJudge(func(last sim.Event) (string, bool) {
		calls++
		return "invariant violated", calls == 2
	})
	for i := 0; i < 3; i++ {
		r.BeginTrial(i)
		feedTrial(r, 1)
	}
	if calls != 3 {
		t.Fatalf("judge consulted %d times, want 3", calls)
	}
	if r.Held() != 1 {
		t.Fatalf("held = %d, want 1", r.Held())
	}
	s := r.Streams(0)[0]
	if s.Trial != 1 || s.Reason != "invariant violated" {
		t.Fatalf("held stream = %+v", s)
	}
}

// At most 32 streams are held; holds past that are counted in Dropped.
func TestFlightRecorderMaxHold(t *testing.T) {
	r := NewFlightRecorder()
	r.SetJudge(func(sim.Event) (string, bool) { return "always", true })
	for i := 0; i < 40; i++ {
		feedTrial(r, 1)
	}
	if r.Held() != 32 || r.Dropped() != 8 {
		t.Fatalf("held/dropped = %d/%d, want 32/8", r.Held(), r.Dropped())
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	r := NewFlightRecorder()
	r.SetJudge(func(sim.Event) (string, bool) { return "pin", true })
	r.BeginTrial(7)
	feedTrial(r, 2.5)
	var buf bytes.Buffer
	if err := WriteFlight(&buf, FlightDump{Streams: r.Streams(1)}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("run_id")) || bytes.Contains(buf.Bytes(), []byte("dropped")) {
		t.Fatalf("dump without a run ID or drops has a run_id or dropped field:\n%s", buf.Bytes())
	}
	d, err := ReadFlight(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.RunID != "" {
		t.Fatalf("run ID %q, want none", d.RunID)
	}
	got := d.Streams
	if len(got) != 2 { // the held copy and the ring copy
		t.Fatalf("round-trip has %d streams, want 2", len(got))
	}
	if got[0].Trial != 7 || !got[0].Held || got[0].Reason != "pin" || got[0].Worker != 1 {
		t.Fatalf("stream 0 = %+v", got[0])
	}
	if got[0].Records[2].Kind != "complete" || got[0].Records[2].Time != 2.5 {
		t.Fatalf("terminal record = %+v", got[0].Records[2])
	}

	// A plain trace file must be rejected.
	buf.Reset()
	rec := &Recorder{Records: []Record{{Kind: "complete"}}}
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlight(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadFlight accepted a mlckpt-trace file")
	}
}

func flightScenario(t *testing.T) sim.Scenario {
	t.Helper()
	sys, err := system.ByName("D7")
	if err != nil {
		t.Fatal(err)
	}
	return sim.Scenario{
		System: sys,
		Plan:   pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}},
	}
}

func TestFlightPoolCampaign(t *testing.T) {
	pool := &FlightPool{}
	camp := sim.Campaign{
		Scenario:        flightScenario(t),
		Trials:          120,
		Seed:            rng.Campaign(3, "flight").Scenario("D7"),
		Workers:         4,
		ObserverFactory: pool.Observer,
		TrialStart:      pool.TrialStart,
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	streams := pool.Streams()
	// Every worker that ran a trial ran a whole block of 8 or more, so
	// its ring is full: the ring streams come in eights, held ones aside.
	ring := 0
	trialSeen := map[int]int{}
	for i, s := range streams {
		if !s.Held {
			ring++
		}
		if s.Trial < 0 || s.Trial >= 120 {
			t.Fatalf("stream has out-of-range trial %d", s.Trial)
		}
		trialSeen[s.Trial]++
		if last := s.Records[len(s.Records)-1]; last.Kind != "complete" && last.Kind != "capped" {
			t.Fatalf("stream %d ends with %q", s.Trial, last.Kind)
		}
		// Held streams sort first, then trial order within each class.
		if i > 0 && streams[i-1].Held == s.Held && streams[i-1].Trial > s.Trial {
			t.Fatalf("streams unsorted at %d: %+v then %+v", i, streams[i-1], s)
		}
	}
	if ring == 0 || ring%8 != 0 {
		t.Fatalf("%d ring streams, want a positive multiple of 8", ring)
	}
	// The ring keeps each worker's LAST trials; with the i%workers
	// round-robin, trial 119 belongs to worker 119%4=3 and must be
	// present (either in the ring or held).
	if trialSeen[119] == 0 {
		t.Fatal("last trial's stream missing from dump")
	}
	var buf bytes.Buffer
	if err := WriteFlight(&buf, FlightDump{Streams: streams}); err != nil {
		t.Fatal(err)
	}
	d, err := ReadFlight(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Streams
	if len(got) != len(streams) {
		t.Fatalf("dump round-trip: %d streams, want %d", len(got), len(streams))
	}
}

// TestFlightPoolCountsDroppedHolds runs a campaign whose judge holds
// every trial. Each recorder keeps the first flightMaxHold holds and
// counts the rest as dropped; the pool sums the counts, the dump carries
// the sum, and the summary line reports it.
func TestFlightPoolCountsDroppedHolds(t *testing.T) {
	const trials = 100
	pool := &FlightPool{}
	camp := sim.Campaign{
		Scenario: flightScenario(t),
		Trials:   trials,
		Seed:     rng.Campaign(3, "flight-drops").Scenario("D7"),
		Workers:  2,
		ObserverFactory: func(worker int) sim.Observer {
			rec := pool.Recorder(worker)
			rec.SetJudge(func(sim.Event) (string, bool) { return "every trial", true })
			return rec
		},
		TrialStart: pool.TrialStart,
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	held := 0
	for w, r := range pool.recs {
		if r.Held() > flightMaxHold || r.Held()+r.Dropped() != r.seen {
			t.Errorf("worker %d: %d held and %d dropped of %d trials, want at most %d held and the rest dropped",
				w, r.Held(), r.Dropped(), r.seen, flightMaxHold)
		}
		held += r.Held()
	}
	dropped := pool.Dropped()
	if dropped == 0 || held+dropped != trials {
		t.Fatalf("%d held and %d dropped, want %d in all with some dropped", held, dropped, trials)
	}
	streams := pool.Streams()
	var buf bytes.Buffer
	if err := WriteFlight(&buf, FlightDump{Dropped: dropped, Streams: streams}); err != nil {
		t.Fatal(err)
	}
	d, err := ReadFlight(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Dropped != dropped || len(d.Streams) != len(streams) {
		t.Fatalf("round trip: %d dropped and %d streams, want %d and %d", d.Dropped, len(d.Streams), dropped, len(streams))
	}
	want := fmt.Sprintf("%d streams (%d held), %d dropped", len(streams), held, dropped)
	if got := d.Counts(); got != want {
		t.Errorf("Counts = %q, want %q", got, want)
	}
	d.Dropped = 0
	if got, want := d.Counts(), fmt.Sprintf("%d streams (%d held)", len(streams), held); got != want {
		t.Errorf("Counts without drops = %q, want %q", got, want)
	}
}

func TestFlightObserverDoesNotAllocate(t *testing.T) {
	eng, err := sim.NewEngine(flightScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	// A hold copies its stream, which is rare by design: the bound
	// below leaves room for one.
	rec := NewFlightRecorder()
	eng.Observe(rec)
	seed := rng.Campaign(3, "flight-alloc").Scenario("D7")
	// Warm up: let the stream buffer and ring slots reach capacity.
	for i := 0; i < 24; i++ {
		if _, err := eng.Run(seed.Trial(i)); err != nil {
			t.Fatal(err)
		}
	}
	trial := 24
	avg := testing.AllocsPerRun(10, func() {
		rec.BeginTrial(trial)
		if _, err := eng.Run(seed.Trial(trial)); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	if avg > 1 {
		t.Fatalf("flight-observed trial allocates %.1f objects, want ~0", avg)
	}
}
