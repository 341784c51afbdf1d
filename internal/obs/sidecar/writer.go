package sidecar

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// refresh is the minimum period between sidecar rewrites; final and
// checkpoint-flagged updates always write.
const refresh = time.Second

// Meta is the static identity a Writer stamps into every sidecar.
type Meta struct {
	RunID        string
	ConfigDigest string
	Label        string
	// Shard/Of locate the process in the fleet; Of 0 is normalized to
	// an unsharded 0/1.
	Shard, Of int
}

// Writer maintains one progress sidecar. Its Update method is a
// sim.Campaign Progress hook: it records every update but rewrites the
// file (atomically, temp + rename) at most once a second — except
// for checkpoint-flagged and final updates, which always flush, so the
// sidecar honors the final-state-on-error contract. Safe for concurrent
// use (the campaign calls Update under its merge lock; the owning
// process may call SetRegistry/Flush from another goroutine).
type Writer struct {
	// Now overrides the clock (tests).
	Now func() time.Time

	path string
	meta Meta

	mu          sync.Mutex
	started     time.Time
	startMerged int
	haveStart   bool
	cur         sim.ProgressUpdate
	haveUpdate  bool
	ckptAt      time.Time
	lastWrite   time.Time
	registry    *obs.Snapshot
	liveStats   func() []obs.StreamStatSnapshot
	err         error
}

// NewWriter returns a writer that maintains the sidecar at path.
func NewWriter(path string, meta Meta) *Writer {
	if meta.Of <= 0 {
		meta.Shard, meta.Of = 0, 1
	}
	return &Writer{path: path, meta: meta}
}

// Path returns the sidecar path.
func (w *Writer) Path() string { return w.path }

// SetLiveStats installs a concurrency-safe source of live stream-stat
// snapshots (e.g. obs.StreamSet.Snapshots) attached to mid-run sidecar
// refreshes, so monitors see live quantiles between checkpoints.
func (w *Writer) SetLiveStats(f func() []obs.StreamStatSnapshot) {
	w.mu.Lock()
	w.liveStats = f
	w.mu.Unlock()
}

// SetRegistry attaches the merged registry snapshot. Worker-sharded
// registries only become safely snapshotable once the campaign
// finishes, so callers typically SetRegistry + Flush right after Run
// returns — enriching the terminal sidecar the final Update already
// wrote.
func (w *Writer) SetRegistry(s *obs.Snapshot) {
	w.mu.Lock()
	w.registry = s
	w.mu.Unlock()
}

// Err returns the first write error, if any (sidecar writes never fail
// the campaign; monitors just see a stale file).
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Update is the sim.Campaign Progress hook.
func (w *Writer) Update(u sim.ProgressUpdate) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.now()
	if !w.haveStart {
		w.started = now
		w.startMerged = u.Merged
		w.haveStart = true
	}
	w.cur = u
	w.haveUpdate = true
	if u.Checkpointed {
		w.ckptAt = now
	}
	if u.Final || u.Checkpointed || now.Sub(w.lastWrite) >= refresh {
		w.writeLocked(now)
	}
}

// Flush rewrites the sidecar with the current state (most recent
// update, registry, live stats), returning any write error.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.haveUpdate {
		return nil
	}
	w.writeLocked(w.now())
	return w.err
}

func (w *Writer) now() time.Time {
	if w.Now != nil {
		return w.Now()
	}
	return time.Now()
}

func (w *Writer) writeLocked(now time.Time) {
	u := w.cur
	f := File{
		Format: Format, Version: Version,
		RunID: w.meta.RunID, ConfigDigest: w.meta.ConfigDigest,
		Label: w.meta.Label, Shard: w.meta.Shard, Of: w.meta.Of,
		PID:          os.Getpid(),
		State:        string(u.State),
		TrialsFirst:  u.First,
		TrialsLimit:  u.Limit,
		TrialsMerged: u.Merged,
		TrialsTotal:  u.Total,

		StartedUnixMS: w.started.UnixMilli(),
		UpdatedUnixMS: now.UnixMilli(),
		RefreshMS:     refresh.Milliseconds(),
		PeakRSSBytes:  readPeakRSS(),
	}
	if u.State == "" {
		f.State = string(sim.RunStateRunning)
	}
	if u.Err != nil {
		f.Error = u.Err.Error()
	}
	if !w.ckptAt.IsZero() {
		f.CheckpointUnixMS = w.ckptAt.UnixMilli()
	}
	if elapsed := now.Sub(w.started).Seconds(); elapsed > 0 && u.Merged > w.startMerged {
		f.ThroughputPerSec = float64(u.Merged-w.startMerged) / elapsed
		if u.State == sim.RunStateRunning && f.ThroughputPerSec > 0 {
			f.ETASeconds = float64(u.Limit-u.Merged) / f.ThroughputPerSec
		}
	}
	switch {
	case w.registry != nil:
		f.Registry = w.registry
	case w.liveStats != nil:
		if stats := w.liveStats(); len(stats) > 0 {
			f.Registry = &obs.Snapshot{Stats: stats}
		}
	}
	if err := writeAtomic(w.path, &f); err != nil && w.err == nil {
		w.err = err
	}
	w.lastWrite = now
}

// writeAtomic writes the sidecar via temp file + rename, the same
// crash-consistency discipline as campaign checkpoints: a reader never
// observes a torn sidecar.
func writeAtomic(path string, f *File) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readPeakRSS returns the process's peak resident set size in bytes
// (VmHWM from /proc/self/status), or 0 where unavailable.
func readPeakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
