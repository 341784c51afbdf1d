package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// FlightRecorder is a bounded "black box" for campaign trials: it keeps
// the complete event streams of the last few trials in a ring buffer,
// and pins (holds) the streams of anomalous trials — trials an external
// judge flags (conformance violations) and trials whose makespan lands
// beyond a running quantile threshold. Everything else is recycled, so a
// million-trial campaign carries only a few streams.
//
// It implements sim.Observer and follows the worker-shard discipline:
// one recorder per worker goroutine (see FlightPool), no locking on the
// event path, and the steady-state path allocates nothing — the current
// stream buffer and the ring slots swap storage instead of reallocating.
type FlightRecorder struct {
	judge func(last sim.Event) (reason string, hold bool)
	hist  *obs.Histogram

	trial   int // index of the trial currently recording
	started bool
	cur     []sim.Event
	recent  []flightEntry
	next    int // ring write position
	filled  int
	held    []heldStream
	dropped int // holds discarded once flightMaxHold streams were held
	seen    int // terminated trials observed
}

// flightEntry is one ring slot.
type flightEntry struct {
	trial  int
	events []sim.Event
	used   bool
}

// heldStream is one pinned anomalous stream.
type heldStream struct {
	trial  int
	reason string
	events []sim.Event
}

// A recorder keeps the streams of the last flightKeep trials and holds
// at most flightMaxHold anomalous streams; further holds are counted in
// Dropped but not kept (early anomalies are usually the interesting
// ones). Once flightMinTrials trials have ended, it holds every trial
// whose makespan lies beyond the flightHoldQuantile of the makespans
// seen so far (a threshold estimated from three trials pins noise).
const (
	flightKeep         = 8
	flightMaxHold      = 32
	flightHoldQuantile = 0.99
	flightMinTrials    = 20
)

// NewFlightRecorder returns a recorder for one worker goroutine.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{
		hist:   obs.NewHistogram(),
		trial:  -1,
		recent: make([]flightEntry, flightKeep),
	}
}

// SetJudge installs (or replaces) the anomaly judge on this recorder.
// The judge is consulted at every trial-terminal event, and returning
// (reason, true) holds the stream. Wire it to a conformance checker
// observing the same worker's trials, ordered before the recorder in
// obs.Multi so that its verdict is current. Call it before the recorder
// observes events.
func (r *FlightRecorder) SetJudge(judge func(last sim.Event) (reason string, hold bool)) {
	r.judge = judge
}

// BeginTrial labels the next event stream with its campaign trial index
// (sim.Campaign.TrialStart hook). Without it, streams are numbered
// sequentially per worker.
func (r *FlightRecorder) BeginTrial(trial int) {
	r.trial = trial
	r.started = true
}

// Observe implements sim.Observer.
func (r *FlightRecorder) Observe(e sim.Event) {
	r.cur = append(r.cur, e)
	if e.Kind == sim.EvComplete || e.Kind == sim.EvCapped {
		r.endTrial(e)
	}
}

// endTrial decides the fate of the just-terminated stream.
func (r *FlightRecorder) endTrial(last sim.Event) {
	reason := ""
	if r.judge != nil {
		if why, hold := r.judge(last); hold {
			reason = why
		}
	}
	makespan := last.Time
	if reason == "" && r.seen >= flightMinTrials && makespan > r.hist.Quantile(flightHoldQuantile) {
		reason = fmt.Sprintf("makespan %.6g beyond p%g", makespan, 100*flightHoldQuantile)
	}
	r.hist.Observe(makespan)
	r.seen++
	if reason != "" {
		if len(r.held) < flightMaxHold {
			r.held = append(r.held, heldStream{
				trial:  r.currentTrial(),
				reason: reason,
				events: append([]sim.Event(nil), r.cur...),
			})
		} else {
			r.dropped++
		}
	}
	// Rotate the stream into the ring, stealing the evicted slot's
	// storage for the next trial — steady state allocates nothing.
	slot := &r.recent[r.next]
	old := slot.events
	slot.events = r.cur
	slot.trial = r.currentTrial()
	slot.used = true
	r.cur = old[:0]
	r.next = (r.next + 1) % len(r.recent)
	if r.filled < len(r.recent) {
		r.filled++
	}
	if r.started {
		r.trial++ // provisional; the next BeginTrial overrides
	}
}

// currentTrial returns the label for the stream in flight.
func (r *FlightRecorder) currentTrial() int {
	if r.started {
		return r.trial
	}
	return r.seen
}

// Held returns how many anomalous streams are pinned (excluding any
// dropped past the cap of flightMaxHold).
func (r *FlightRecorder) Held() int { return len(r.held) }

// Dropped returns how many holds were discarded at the cap of
// flightMaxHold.
func (r *FlightRecorder) Dropped() int { return r.dropped }

// FlightStream is one dumped trial event stream.
type FlightStream struct {
	Trial  int    `json:"trial"`
	Worker int    `json:"worker"`
	Held   bool   `json:"held,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Label optionally names the campaign the stream came from — tools
	// dumping several campaigns into one file (mlckpt runs one campaign
	// per technique) stamp it so trial indices stay unambiguous.
	Label   string   `json:"label,omitempty"`
	Records []Record `json:"records"`
}

func toRecords(events []sim.Event) []Record {
	out := make([]Record, len(events))
	for i, e := range events {
		out[i] = Record{
			Time:     e.Time,
			Kind:     e.Kind.String(),
			Phase:    e.Phase.String(),
			Level:    e.Level,
			Progress: e.Progress,
		}
	}
	return out
}

// Streams converts the recorder's current contents — pinned streams,
// then the recent ring — into dump form. worker labels the output.
func (r *FlightRecorder) Streams(worker int) []FlightStream {
	var out []FlightStream
	for _, h := range r.held {
		out = append(out, FlightStream{
			Trial: h.trial, Worker: worker, Held: true, Reason: h.reason,
			Records: toRecords(h.events),
		})
	}
	for i := 0; i < r.filled; i++ {
		e := &r.recent[i]
		if !e.used {
			continue
		}
		out = append(out, FlightStream{
			Trial: e.trial, Worker: worker, Records: toRecords(e.events),
		})
	}
	return out
}

// FlightDump is the content of a flight-dump file.
type FlightDump struct {
	// RunID is the fleet run identifier of progress sidecars and
	// event-log lines, so a dump correlates with the run that produced
	// it; "" when the dump was written without one.
	RunID string `json:"run_id,omitempty"`
	// Dropped counts the anomalous streams the recorders judged worth
	// holding but discarded at their cap (FlightRecorder.Dropped, summed).
	Dropped int            `json:"dropped,omitempty"`
	Streams []FlightStream `json:"streams"`
}

// Counts renders the dump's stream counts for a summary line: "N
// streams (H held)", followed by ", D dropped" when the recorders
// dropped holds at their cap.
func (d FlightDump) Counts() string {
	held := 0
	for _, s := range d.Streams {
		if s.Held {
			held++
		}
	}
	out := fmt.Sprintf("%d streams (%d held)", len(d.Streams), held)
	if d.Dropped > 0 {
		out += fmt.Sprintf(", %d dropped", d.Dropped)
	}
	return out
}

// flightHeader versions the serialized flight-dump format. A dump's
// run_id and dropped fields are optional, added within version 1: older
// dumps lack them, and they are omitted when empty.
type flightHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	FlightDump
}

const flightFormatName = "mlckpt-flight"

// WriteFlight serializes a flight dump.
func WriteFlight(w io.Writer, d FlightDump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(flightHeader{Format: flightFormatName, Version: 1, FlightDump: d})
}

// ReadFlight deserializes a dump written by WriteFlight.
func ReadFlight(rd io.Reader) (FlightDump, error) {
	var h flightHeader
	if err := json.NewDecoder(rd).Decode(&h); err != nil {
		return FlightDump{}, fmt.Errorf("trace: decode flight dump: %w", err)
	}
	if h.Format != flightFormatName {
		return FlightDump{}, fmt.Errorf("trace: not a %s file (format %q)", flightFormatName, h.Format)
	}
	if h.Version != 1 {
		return FlightDump{}, fmt.Errorf("trace: unsupported flight version %d", h.Version)
	}
	return h.FlightDump, nil
}

// FlightPool hands out one FlightRecorder per campaign worker goroutine
// and assembles their contents after (or during an error abort of) a
// run. Recorder/Observer are safe for concurrent use; each returned
// recorder must stay goroutine-local.
type FlightPool struct {
	mu   sync.Mutex
	recs map[int]*FlightRecorder
}

// Recorder returns the worker's recorder, creating it on first use —
// idempotent, so both ObserverFactory and TrialStart hooks can call it.
func (p *FlightPool) Recorder(worker int) *FlightRecorder {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recs == nil {
		p.recs = map[int]*FlightRecorder{}
	}
	r, ok := p.recs[worker]
	if !ok {
		r = NewFlightRecorder()
		p.recs[worker] = r
	}
	return r
}

// Observer implements sim.Campaign.ObserverFactory.
func (p *FlightPool) Observer(worker int) sim.Observer {
	return p.Recorder(worker)
}

// TrialStart implements sim.Campaign.TrialStart.
func (p *FlightPool) TrialStart(worker, trial int) {
	p.Recorder(worker).BeginTrial(trial)
}

// Dropped returns how many holds the workers' recorders discarded at
// their cap, summed. Callers must not invoke it while a campaign is still
// observing.
func (p *FlightPool) Dropped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.recs {
		n += r.Dropped()
	}
	return n
}

// Streams returns every worker's streams, held ones first, then by
// trial index — deterministic for a given set of recorded trials.
// Callers must not invoke it while a campaign is still observing.
func (p *FlightPool) Streams() []FlightStream {
	p.mu.Lock()
	workers := make([]int, 0, len(p.recs))
	for w := range p.recs {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	var out []FlightStream
	for _, w := range workers {
		out = append(out, p.recs[w].Streams(w)...)
	}
	p.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Held != out[j].Held {
			return out[i].Held
		}
		return out[i].Trial < out[j].Trial
	})
	return out
}
