// Package trace records and replays simulation runs. A Recorder captures
// the full event stream of one trial (for debugging and for the
// cmd/simtrace tool); Recording/Replay samplers capture the failure
// inter-arrival draws of a trial so the exact same failure process can be
// re-injected into a modified scenario — the standard tool for
// "same failures, different plan" comparisons.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Record is one serialized simulation event.
type Record struct {
	Time     float64 `json:"t"`
	Kind     string  `json:"kind"`
	Phase    string  `json:"phase"`
	Level    int     `json:"level,omitempty"`
	Progress float64 `json:"progress"`
}

// Recorder collects simulation events; it implements sim.Observer.
type Recorder struct {
	Records []Record
}

// Observe implements sim.Observer.
func (r *Recorder) Observe(e sim.Event) {
	r.Records = append(r.Records, Record{
		Time:     e.Time,
		Kind:     e.Kind.String(),
		Phase:    e.Phase.String(),
		Level:    e.Level,
		Progress: e.Progress,
	})
}

// Counts tallies records by kind.
func (r *Recorder) Counts() map[string]int {
	out := map[string]int{}
	for _, rec := range r.Records {
		out[rec.Kind]++
	}
	return out
}

// header versions the serialized trace format.
type header struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Records []Record `json:"records"`
}

const formatName = "mlckpt-trace"

// Write serializes the recorded events as JSON.
func (r *Recorder) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(header{Format: formatName, Version: 1, Records: r.Records})
}

// RecordingSampler wraps a failure law and logs every draw.
type RecordingSampler struct {
	Inner dist.Sampler
	Draws []float64
}

// Sample implements dist.Sampler.
func (r *RecordingSampler) Sample(src *rand.Rand) float64 {
	v := r.Inner.Sample(src)
	r.Draws = append(r.Draws, v)
	return v
}

// Mean implements dist.Sampler.
func (r *RecordingSampler) Mean() float64 { return r.Inner.Mean() }

// ReplaySampler replays a recorded draw sequence. When the recording is
// exhausted it returns +Inf (no further failures), which keeps replays
// deterministic.
type ReplaySampler struct {
	Draws []float64
	next  int
}

// Sample implements dist.Sampler.
func (r *ReplaySampler) Sample(*rand.Rand) float64 {
	if r.next >= len(r.Draws) {
		return math.Inf(1)
	}
	v := r.Draws[r.next]
	r.next++
	return v
}

// Mean implements dist.Sampler; it reports the mean of the recorded
// draws (0 for an empty recording).
func (r *ReplaySampler) Mean() float64 {
	if len(r.Draws) == 0 {
		return 0
	}
	var s float64
	for _, d := range r.Draws {
		s += d
	}
	return s / float64(len(r.Draws))
}

// Rewind restarts the replay from the first draw.
func (r *ReplaySampler) Rewind() { r.next = 0 }

// Remaining returns how many recorded draws have not been replayed.
func (r *ReplaySampler) Remaining() int { return len(r.Draws) - r.next }

// RecordFailures runs one trial with recording samplers installed for
// every severity and returns the trial result together with replayable
// samplers holding the recorded failure processes.
func RecordFailures(scn sim.Scenario, src *rand.Rand) (sim.TrialResult, []*ReplaySampler, error) {
	if scn.System == nil {
		return sim.TrialResult{}, nil, errors.New("trace: nil system")
	}
	if err := scn.Validate(); err != nil {
		return sim.TrialResult{}, nil, err
	}
	recs := make([]*RecordingSampler, scn.System.NumLevels())
	laws := make([]dist.Sampler, scn.System.NumLevels())
	for sev := 1; sev <= scn.System.NumLevels(); sev++ {
		rate := scn.System.LevelRate(sev)
		if len(scn.FailureLaws) >= sev && scn.FailureLaws[sev-1] != nil {
			recs[sev-1] = &RecordingSampler{Inner: scn.FailureLaws[sev-1]}
		} else if rate > 0 {
			law, err := dist.NewExponential(rate)
			if err != nil {
				return sim.TrialResult{}, nil, err
			}
			recs[sev-1] = &RecordingSampler{Inner: law}
		}
		if recs[sev-1] != nil {
			laws[sev-1] = recs[sev-1]
		}
	}
	scn.FailureLaws = laws
	res, err := sim.RunTrial(scn, src)
	if err != nil {
		return sim.TrialResult{}, nil, err
	}
	replays := make([]*ReplaySampler, len(recs))
	for i, r := range recs {
		if r != nil {
			replays[i] = &ReplaySampler{Draws: r.Draws}
		} else {
			replays[i] = &ReplaySampler{}
		}
	}
	return res, replays, nil
}

// ReplayFailures re-runs a scenario against previously recorded failure
// processes. The plan or policy in scn may differ from the recording
// run; the failure arrivals stay identical as long as the replay is not
// exhausted.
func ReplayFailures(scn sim.Scenario, replays []*ReplaySampler, src *rand.Rand) (sim.TrialResult, error) {
	if scn.System == nil {
		return sim.TrialResult{}, errors.New("trace: nil system")
	}
	if len(replays) != scn.System.NumLevels() {
		return sim.TrialResult{}, fmt.Errorf("trace: %d replay streams for %d severities",
			len(replays), scn.System.NumLevels())
	}
	laws := make([]dist.Sampler, len(replays))
	for i, r := range replays {
		r.Rewind()
		laws[i] = r
	}
	scn.FailureLaws = laws
	return sim.RunTrial(scn, src)
}
