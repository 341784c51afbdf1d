// Package sidecar implements the fleet-observability progress sidecar:
// a small, versioned JSON file each campaign or shard process writes
// atomically next to its checkpoint/shard artifact, carrying identity
// (run ID + config digest), the merged-trial prefix, throughput and ETA,
// peak RSS, and optionally an embedded obs registry snapshot. Sidecars
// are the cross-process half of the telemetry layer: a monitor (mlckpt
// -watch, obshttp /shards) scans a directory of them and aggregates a
// fleet view without talking to the worker processes at all. The
// embedded registry snapshot is for readers (mlckpt -watch -json,
// obshttp /shards); it is not read back into a registry.
//
// Staleness is self-describing: every sidecar records its writer's
// refresh cadence (RefreshMS), so a monitor flags a shard as stalled
// when the file has not been rewritten within staleFactor × refresh —
// no shared clock or configuration needed beyond the directory.
package sidecar

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

const (
	// Format and Version identify the sidecar schema, following the
	// repo's artifact convention ("mlckpt-campaign" checkpoints,
	// "mlckpt-flight" dumps).
	Format  = "mlckpt-progress"
	Version = 1
	// Suffix is the conventional sidecar filename suffix: a sidecar
	// lives at <artifact path> + Suffix.
	Suffix = ".progress"
)

// File is one progress sidecar. All timestamps are Unix milliseconds;
// trial indices are absolute campaign indices (a shard covering
// [TrialsFirst, TrialsLimit) reports TrialsMerged inside that range,
// against the whole campaign's TrialsTotal).
type File struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// RunID correlates this sidecar with event-log lines and flight
	// dumps of the same run; ConfigDigest identifies the campaign
	// configuration, so shards belong together exactly when their
	// digests match.
	RunID        string `json:"run_id"`
	ConfigDigest string `json:"config_digest,omitempty"`
	// Label names the campaign cell (e.g. "D7-daly").
	Label string `json:"label,omitempty"`
	// Shard/Of locate this process in the fleet; 0/1 for an unsharded run.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	PID   int `json:"pid,omitempty"`

	// State is a sim.RunState string: running, complete, failed, halted.
	State string `json:"state"`
	Error string `json:"error,omitempty"`

	TrialsFirst  int `json:"trials_first"`
	TrialsLimit  int `json:"trials_limit"`
	TrialsMerged int `json:"trials_merged"`
	TrialsTotal  int `json:"trials_total"`

	StartedUnixMS    int64 `json:"started_unix_ms"`
	UpdatedUnixMS    int64 `json:"updated_unix_ms"`
	CheckpointUnixMS int64 `json:"checkpoint_unix_ms,omitempty"`
	// RefreshMS is the writer's target refresh period — the staleness
	// rule input.
	RefreshMS int64 `json:"refresh_ms"`

	ThroughputPerSec float64 `json:"throughput_per_sec,omitempty"`
	ETASeconds       float64 `json:"eta_seconds,omitempty"`
	PeakRSSBytes     int64   `json:"peak_rss_bytes,omitempty"`

	// Registry, when present, is the shard's obs snapshot (attached at
	// checkpoint-quiescent points and on final writes; mid-run refreshes
	// may carry only the live Stats section, since worker-sharded
	// registries cannot be snapshotted concurrently).
	Registry *obs.Snapshot `json:"registry,omitempty"`

	// Path is where the sidecar was read from (set by Read/Scan, not
	// serialized).
	Path string `json:"-"`
}

var validStates = map[string]bool{
	"running": true, "complete": true, "failed": true, "halted": true,
}

// Validate checks the sidecar against its schema.
func (f *File) Validate() error {
	if f.Format != Format {
		return fmt.Errorf("sidecar: format %q, want %q", f.Format, Format)
	}
	if f.Version != Version {
		return fmt.Errorf("sidecar: unsupported %s version %d", Format, f.Version)
	}
	if f.RunID == "" {
		return fmt.Errorf("sidecar: missing run_id")
	}
	if !validStates[f.State] {
		return fmt.Errorf("sidecar: invalid state %q", f.State)
	}
	if f.Of <= 0 || f.Shard < 0 || f.Shard >= f.Of {
		return fmt.Errorf("sidecar: shard %d/%d out of range", f.Shard, f.Of)
	}
	if f.TrialsFirst < 0 || f.TrialsMerged < f.TrialsFirst ||
		f.TrialsLimit < f.TrialsMerged || f.TrialsTotal < f.TrialsLimit {
		return fmt.Errorf("sidecar: inconsistent trial counts first=%d merged=%d limit=%d total=%d",
			f.TrialsFirst, f.TrialsMerged, f.TrialsLimit, f.TrialsTotal)
	}
	if f.RefreshMS <= 0 {
		return fmt.Errorf("sidecar: refresh_ms %d must be positive", f.RefreshMS)
	}
	if f.StartedUnixMS <= 0 || f.UpdatedUnixMS < f.StartedUnixMS {
		return fmt.Errorf("sidecar: inconsistent timestamps started=%d updated=%d",
			f.StartedUnixMS, f.UpdatedUnixMS)
	}
	return nil
}

// Fraction returns the completed fraction of this sidecar's own trial
// range (1 for an empty range).
func (f *File) Fraction() float64 {
	n := f.TrialsLimit - f.TrialsFirst
	if n <= 0 {
		return 1
	}
	return float64(f.TrialsMerged-f.TrialsFirst) / float64(n)
}

// Read parses and validates one sidecar file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sidecar: %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.Path = path
	return &f, nil
}

// Scan reads every *.progress sidecar in dir, sorted by (config digest,
// label, shard, path) so fleet aggregation is deterministic. Unreadable
// or invalid files are skipped (a scanner races against writers'
// renames); scanning an empty or sidecar-free directory returns an
// empty slice, but a missing directory is an error.
func Scan(dir string) ([]*File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Suffix) {
			continue
		}
		f, err := Read(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ConfigDigest != b.ConfigDigest {
			return a.ConfigDigest < b.ConfigDigest
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Path < b.Path
	})
	return out, nil
}

// ConfigDigest hashes the identifying parts of a campaign configuration
// (system, technique, seed words, trial count, block size, sink kind…)
// into a short stable hex string. Shard sidecars with equal digests
// belong to the same campaign; the digest doubles as the deterministic
// run ID, so re-running the same configuration correlates with the same
// artifacts.
func ConfigDigest(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
