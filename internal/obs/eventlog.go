package obs

import (
	"io"
	"log/slog"
	"time"
)

// EventLog is the structured campaign event stream: line-delimited JSON
// (slog) records for campaign lifecycle transitions — start, checkpoint,
// resume, shard merge, error, end — each carrying the run ID so fleet
// logs from many processes correlate by run. A nil *EventLog is a valid
// no-op logger, so call sites need no conditionals; construction is
// gated behind the CLIs' -log-json flag.
type EventLog struct {
	l     *slog.Logger
	runID string
}

// NewEventLog returns an event log writing JSON lines to w, stamping
// run_id on every record. runID may be empty for runs without a fleet
// identity.
func NewEventLog(w io.Writer, runID string) *EventLog {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			// Millisecond timestamps keep log lines aligned with sidecar
			// *_unix_ms fields.
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Int64("ts_ms", a.Value.Time().UnixMilli())
			}
			return a
		},
	})
	l := slog.New(h)
	if runID != "" {
		l = l.With("run_id", runID)
	}
	return &EventLog{l: l, runID: runID}
}

// WithRun returns a copy of the log bound to a different run ID (e.g.
// one log sink shared by several campaign cells). Nil-safe.
func (e *EventLog) WithRun(runID string) *EventLog {
	if e == nil {
		return nil
	}
	return &EventLog{l: e.l.With("run_id", runID), runID: runID}
}

// WithLabel returns a copy of the log that stamps label on every record
// (e.g. one campaign cell's system and technique), so the records of
// campaigns running at once into one log group by campaign. Nil-safe.
func (e *EventLog) WithLabel(label string) *EventLog {
	if e == nil {
		return nil
	}
	return &EventLog{l: e.l.With("label", label), runID: e.runID}
}

// RunID returns the bound run ID ("" for nil or unbound logs).
func (e *EventLog) RunID() string {
	if e == nil {
		return ""
	}
	return e.runID
}

// Event emits one structured event with arbitrary attributes
// (alternating key, value pairs, slog-style). Nil-safe.
func (e *EventLog) Event(event string, attrs ...any) {
	if e == nil {
		return
	}
	e.l.Info(event, attrs...)
}

// CampaignStart records a campaign (or shard) starting over trial range
// [first, limit) of total trials. The campaign's label comes from
// WithLabel, which stamps it on the campaign's later records too.
func (e *EventLog) CampaignStart(shard, of, first, limit, total int) {
	e.Event("campaign_start", "shard", shard, "of", of,
		"trials_first", first, "trials_limit", limit, "trials_total", total)
}

// Checkpoint records a checkpoint flush at a merged-trial prefix.
func (e *EventLog) Checkpoint(path string, merged int) {
	e.Event("checkpoint", "path", path, "trials_merged", merged)
}

// Resume records a campaign resuming from a checkpoint.
func (e *EventLog) Resume(path string, next int) {
	e.Event("resume", "path", path, "trials_next", next)
}

// ShardMerge records merging shard files into a final result.
func (e *EventLog) ShardMerge(paths []string, trials int) {
	e.Event("shard_merge", "shards", len(paths), "paths", paths, "trials_total", trials)
}

// Error records a campaign error (state matches the sidecar's terminal
// state: failed or halted).
func (e *EventLog) Error(state string, err error) {
	if e == nil || err == nil {
		return
	}
	e.l.Error("campaign_error", "state", state, "error", err.Error())
}

// CampaignEnd records a terminal state with the merged prefix and wall
// duration.
func (e *EventLog) CampaignEnd(state string, merged int, elapsed time.Duration) {
	e.Event("campaign_end", "state", state, "trials_merged", merged,
		"elapsed_ms", elapsed.Milliseconds())
}
