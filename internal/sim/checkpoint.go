package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// floatBits / bitsFloat carry float64s through JSON as IEEE-754 bit
// patterns: checkpoint resume must be bitwise exact, and decimal float
// formatting would round.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// campaignFormatName versions campaign checkpoint and shard files, in
// the same spirit as the flight recorder's "mlckpt-flight" format.
const campaignFormatName = "mlckpt-campaign"

// ErrCampaignHalted is returned by Campaign.Run when
// CheckpointConfig.HaltAfter stopped the run at a checkpoint instead of
// completing it. The checkpoint file then holds the merged prefix;
// re-running with Resume continues from it.
var ErrCampaignHalted = errors.New("sim: campaign halted at checkpoint")

// CheckpointConfig enables periodic campaign checkpointing: every
// Interval merged trials, the sink's merged-prefix state and the next
// trial index are written to Path (atomically, via temp file + rename).
// Because trial i always draws its stream from Seed.Trial(i) and the
// runner merges trial blocks in ascending order, a resumed campaign is
// bitwise identical to an uninterrupted one — the repo's own campaigns
// checkpoint with exactly the guarantees the paper demands of SCR.
// Requires a PortableSink (the default exact sink and the stream sink
// both qualify).
type CheckpointConfig struct {
	// Path is the checkpoint file. Required.
	Path string
	// Interval is the number of merged trials between checkpoint
	// writes. Run rejects Interval <= 0 or Interval > Trials: a
	// non-positive interval is a unit mix-up and an interval above the
	// campaign size would never write a mid-run checkpoint while
	// claiming to checkpoint.
	Interval int
	// Resume, when true and Path exists, loads the checkpoint and
	// continues from its recorded trial index instead of starting at 0.
	// The checkpoint must match the campaign (seed, trials, block size,
	// sink kind) or Run fails rather than silently mixing states.
	Resume bool
	// HaltAfter, when positive, halts the run cleanly once at least
	// HaltAfter trials beyond the resume point have merged: the final
	// checkpoint is flushed and Run returns ErrCampaignHalted. It
	// simulates the kill in kill-and-resume tests and lets drivers
	// bound work per invocation.
	HaltAfter int
}

// checkpointFile is the on-disk layout shared by campaign checkpoints
// and shard files. First/Next delimit the trial range the State covers:
// checkpoints always have First 0; shard k of n covers its block-aligned
// slice of the campaign.
type checkpointFile struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	SeedHi  uint64          `json:"seed_hi"`
	SeedLo  uint64          `json:"seed_lo"`
	Trials  int             `json:"trials"`
	Block   int             `json:"block"`
	First   int             `json:"first"`
	Next    int             `json:"next"`
	Sink    string          `json:"sink"`
	State   json.RawMessage `json:"state"`
}

// writeSinkFile atomically writes the sink state covering trials
// [first, next) of this campaign.
func (c *Campaign) writeSinkFile(path string, sink PortableSink, first, next int) error {
	state, err := sink.MarshalState()
	if err != nil {
		return fmt.Errorf("sim: checkpoint state: %w", err)
	}
	hi, lo := c.Seed.Words()
	payload, err := json.Marshal(checkpointFile{
		Format: campaignFormatName, Version: 1,
		SeedHi: hi, SeedLo: lo,
		Trials: c.Trials, Block: c.blockSize(),
		First: first, Next: next,
		Sink: sink.Kind(), State: state,
	})
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

// readSinkFile parses a checkpoint or shard file.
func readSinkFile(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", path, err)
	}
	if f.Format != campaignFormatName {
		return nil, fmt.Errorf("sim: %s is not a %s file (format %q)", path, campaignFormatName, f.Format)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("sim: %s: unsupported %s version %d", path, campaignFormatName, f.Version)
	}
	return &f, nil
}

// validateHeader checks that a checkpoint/shard file belongs to this
// campaign and this sink.
func (c *Campaign) validateHeader(path string, f *checkpointFile, sink PortableSink) error {
	hi, lo := c.Seed.Words()
	if f.SeedHi != hi || f.SeedLo != lo {
		return fmt.Errorf("sim: %s was written for a different seed", path)
	}
	if f.Trials != c.Trials {
		return fmt.Errorf("sim: %s covers a %d-trial campaign, this one has %d", path, f.Trials, c.Trials)
	}
	if f.Block != c.blockSize() {
		return fmt.Errorf("sim: %s used block size %d, this campaign uses %d", path, f.Block, c.blockSize())
	}
	if f.Sink != sink.Kind() {
		return fmt.Errorf("sim: %s holds %q sink state, this campaign uses %q", path, f.Sink, sink.Kind())
	}
	if f.First < 0 || f.Next < f.First || f.Next > c.Trials {
		return fmt.Errorf("sim: %s covers invalid trial range [%d,%d)", path, f.First, f.Next)
	}
	return nil
}

// loadCheckpoint loads Checkpoint.Path into sink if it exists, returning
// the resume trial index. A missing file is not an error — the campaign
// simply starts from trial 0.
func (c *Campaign) loadCheckpoint(sink PortableSink) (next int, loaded bool, err error) {
	f, err := readSinkFile(c.Checkpoint.Path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if err := c.validateHeader(c.Checkpoint.Path, f, sink); err != nil {
		return 0, false, err
	}
	if f.First != 0 {
		return 0, false, fmt.Errorf("sim: %s is a shard file (first=%d), not a checkpoint", c.Checkpoint.Path, f.First)
	}
	if err := c.loadState(c.Checkpoint.Path, f, sink); err != nil {
		return 0, false, err
	}
	return f.Next, true, nil
}

// loadState decodes a checkpoint or shard file's state into sink and
// checks it against what the header and this campaign imply: Next −
// First trials, each with the system's level count. An edited or
// truncated state is an error here, not a wrong result or a panic on a
// runner goroutine later. Sinks other than this package's own check only
// what their UnmarshalState checks.
func (c *Campaign) loadState(path string, f *checkpointFile, sink PortableSink) error {
	if err := sink.UnmarshalState(f.State); err != nil {
		return fmt.Errorf("sim: %s: %w", path, err)
	}
	shaped, ok := sink.(interface{ stateShape() (trials, levels int) })
	if !ok {
		return nil
	}
	trials, levels := shaped.stateShape()
	if want := f.Next - f.First; trials != want {
		return fmt.Errorf("sim: %s holds %d trials of state for the range [%d,%d) of %d trials",
			path, trials, f.First, f.Next, want)
	}
	if L := c.Scenario.System.NumLevels(); levels != L && !(trials == 0 && levels == 0) {
		return fmt.Errorf("sim: %s holds state for %d levels, the campaign's system has %d", path, levels, L)
	}
	return nil
}

// ShardRange returns the block-aligned trial range [lo, hi) owned by
// shard k of n in a trials-sized campaign with the given block size.
// Ranges are contiguous, cover [0, trials) exactly, and never split a
// block — the alignment that makes merging shard states in shard order
// reproduce a single run's block-merge order bit for bit. A block of 0
// means DefaultBlock, mirroring Campaign.Block.
func ShardRange(trials, block, shard, of int) (lo, hi int) {
	if block <= 0 {
		block = DefaultBlock
	}
	nBlocks := (trials + block - 1) / block
	bLo := shard * nBlocks / of
	bHi := (shard + 1) * nBlocks / of
	lo = bLo * block
	hi = bHi * block
	if hi > trials {
		hi = trials
	}
	return lo, hi
}

// RunShard executes shard k of n — the block-aligned slice
// ShardRange(Trials, Block, shard, of) of this campaign — and writes the
// sink's state to path as a mergeable shard file. Each shard is an
// independent process-sized unit of work: N shard files produced with
// any worker counts merge (MergeShards) into a result bitwise identical
// to a single-process run.
func (c Campaign) RunShard(path string, shard, of int) error {
	if of <= 0 || shard < 0 || shard >= of {
		return fmt.Errorf("sim: shard %d/%d out of range", shard, of)
	}
	if c.Checkpoint != nil {
		return errors.New("sim: shard runs do not take a CheckpointConfig (the shard file is the checkpoint)")
	}
	if err := c.validate(); err != nil {
		return err
	}
	sink, err := c.portableSink()
	if err != nil {
		return err
	}
	lo, hi := ShardRange(c.Trials, c.blockSize(), shard, of)
	if _, err := c.runBlocks(sink, lo, hi); err != nil {
		return err
	}
	if err := c.writeSinkFile(path, sink, lo, hi); err != nil {
		c.notify(ProgressUpdate{First: lo, Limit: hi, Merged: hi,
			State: RunStateFailed, Final: true, Err: err})
		return err
	}
	c.notify(ProgressUpdate{First: lo, Limit: hi, Merged: hi,
		State: RunStateComplete, Final: true})
	return nil
}

// MergeShards merges shard files written by RunShard into the final
// CampaignResult. The files must belong to this campaign (same seed,
// trial count, block size and sink kind) and jointly cover [0, Trials)
// without gap or overlap; order of the arguments does not matter.
func (c Campaign) MergeShards(paths ...string) (CampaignResult, error) {
	if len(paths) == 0 {
		return CampaignResult{}, errors.New("sim: no shard files to merge")
	}
	if err := c.validate(); err != nil {
		return CampaignResult{}, err
	}
	base, err := c.portableSink()
	if err != nil {
		return CampaignResult{}, err
	}
	files := make([]*checkpointFile, len(paths))
	order := make([]int, len(paths))
	for i, p := range paths {
		f, err := readSinkFile(p)
		if err != nil {
			return CampaignResult{}, err
		}
		if err := c.validateHeader(p, f, base); err != nil {
			return CampaignResult{}, err
		}
		files[i], order[i] = f, i
	}
	sort.Slice(order, func(a, b int) bool { return files[order[a]].First < files[order[b]].First })
	want := 0
	for rank, i := range order {
		f := files[i]
		if f.First != want {
			return CampaignResult{}, fmt.Errorf("sim: %s covers [%d,%d) but [%d,...) is needed — shards must tile the campaign",
				paths[i], f.First, f.Next, want)
		}
		want = f.Next
		if rank == 0 {
			if err := c.loadState(paths[i], f, base); err != nil {
				return CampaignResult{}, err
			}
			continue
		}
		next, err := NewSink(f.Sink)
		if err != nil {
			return CampaignResult{}, err
		}
		if err := c.loadState(paths[i], f, next); err != nil {
			return CampaignResult{}, err
		}
		if err := base.MergeSink(next); err != nil {
			return CampaignResult{}, fmt.Errorf("sim: merging %s: %w", paths[i], err)
		}
	}
	if want != c.Trials {
		return CampaignResult{}, fmt.Errorf("sim: shards cover [0,%d) of %d trials", want, c.Trials)
	}
	return base.Result()
}

// portableSink resolves the campaign's sink as a PortableSink, building
// the default exact sink when none is set.
func (c *Campaign) portableSink() (PortableSink, error) {
	if c.Sink == nil {
		s := NewExactSink()
		s.Reserve(c.Trials, c.Scenario.System.NumLevels())
		return s, nil
	}
	ps, ok := c.Sink.(PortableSink)
	if !ok {
		return nil, fmt.Errorf("sim: sink %T cannot checkpoint or shard (needs PortableSink)", c.Sink)
	}
	return ps, nil
}
