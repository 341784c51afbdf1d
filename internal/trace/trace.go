// Package trace records simulation runs for inspection. A Recorder
// captures the full event stream of one trial (for debugging and for the
// cmd/simtrace tool); a FlightRecorder keeps the streams of a campaign's
// last and most anomalous trials. Neither changes what a trial draws:
// holding the failures of a trial fixed across plans is the job of the
// trial seed (sim.PairedCampaign), not of a recording.
package trace

import (
	"encoding/json"
	"io"

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
