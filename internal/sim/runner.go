package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// maxWorkers bounds Campaign.Workers. Far above any real machine; a
// request beyond it is a unit mix-up (e.g. passing a trial count), not
// a parallelism choice, and is rejected rather than silently clamped.
const maxWorkers = 1 << 16

// Campaign runs many independent trials of one scenario.
type Campaign struct {
	// Scenario is the per-trial scenario.
	Scenario Scenario
	// Trials is the number of independent executions (the paper uses
	// 200, or 400 for Figure 5).
	Trials int
	// Seed is the scenario-level seed. Trial i always draws its random
	// stream from Seed.Trial(i): the seed→trial mapping is part of the
	// API contract, so a campaign's results — including the order of
	// Efficiencies and every aggregate — are byte-identical for a given
	// Seed regardless of Workers, scheduling, or engine reuse.
	Seed rng.Seed
	// Workers bounds parallelism. 0 means GOMAXPROCS; values above
	// Trials are clamped to Trials (extra workers would idle). Negative
	// or absurdly large (> 65536) values are rejected by Run.
	Workers int
	// ObserverFactory, when non-nil, builds one Observer per worker
	// goroutine (called once per worker with its index); every trial the
	// worker runs streams events to that observer. Keeping observer
	// state goroutine-local lets metrics shards aggregate without locks
	// on the hot path (see internal/obs.Pool).
	ObserverFactory func(worker int) Observer
	// TrialStart, when non-nil, is called from the worker goroutine
	// immediately before each trial runs, with the worker's index and
	// the campaign trial index — it must be safe for concurrent use.
	// Flight recorders hook in here to label the upcoming event stream
	// (see internal/trace.FlightPool).
	TrialStart func(worker, trial int)
	// TrialDone, when non-nil, is called once after every completed
	// trial, from worker goroutines — it must be safe for concurrent
	// use. Progress reporters hook in here. The result's Failures slice
	// is engine scratch, only valid during the call.
	TrialDone func(TrialResult)

	// Sink receives the per-trial results (see CampaignSink for the
	// scheduling contract). nil means an ExactSink, which reproduces the
	// historical buffered aggregation bit for bit; NewStreamSink gives
	// constant-memory aggregation for mega-campaigns.
	Sink CampaignSink
	// Block is the scheduling block size in trials (0 means
	// DefaultBlock). The trial range is cut into fixed Block-sized
	// pieces that merge into the sink in ascending order; the partition
	// depends only on trial indices, so results are byte-identical for
	// any Workers. Checkpoints and shard boundaries are block-aligned,
	// so resuming or sharding requires the same Block the original run
	// used.
	Block int
	// Checkpoint, when non-nil, enables periodic checkpointing and
	// resume (requires the sink to be a PortableSink; the default exact
	// sink and the stream sink both are).
	Checkpoint *CheckpointConfig
	// Progress, when non-nil, receives ProgressUpdates as the merged
	// prefix advances: one update when the run starts, one whenever
	// blocks merge (flagged when the merge also wrote a checkpoint), and
	// a final update on every exit path — complete, failed, or halted —
	// so progress sidecars record how the run ended. Calls are made under
	// the runner's merge lock and must be fast and non-blocking (throttle
	// expensive work, e.g. file writes, inside the callback).
	Progress func(ProgressUpdate)
}

// RunState classifies a campaign run's lifecycle in ProgressUpdates and
// progress sidecars.
type RunState string

const (
	// RunStateRunning: trials are still merging.
	RunStateRunning RunState = "running"
	// RunStateComplete: the run finished every trial in its range.
	RunStateComplete RunState = "complete"
	// RunStateFailed: the run stopped on an error.
	RunStateFailed RunState = "failed"
	// RunStateHalted: CheckpointConfig.HaltAfter stopped the run cleanly.
	RunStateHalted RunState = "halted"
)

// ProgressUpdate reports the merged-prefix progress of a campaign run.
// Trial counts are absolute campaign indices: a shard run covering
// [First, Limit) reports Merged within that range, against the
// whole-campaign Total.
type ProgressUpdate struct {
	// First and Limit delimit the trial range this run covers (the full
	// campaign for Run, the shard's slice for RunShard).
	First, Limit int
	// Merged is the contiguous merged prefix: trials [First, Merged) are
	// folded into the sink.
	Merged int
	// Total is Campaign.Trials.
	Total int
	// State is the run's lifecycle state; exactly one update with
	// Final=true carries a terminal state.
	State RunState
	// Checkpointed marks updates issued right after a checkpoint write.
	Checkpointed bool
	// Final marks the last update of the run.
	Final bool
	// Err is the terminal error when State is RunStateFailed.
	Err error
}

// notify invokes the Progress hook if set.
func (c *Campaign) notify(u ProgressUpdate) {
	if c.Progress != nil {
		u.Total = c.Trials
		c.Progress(u)
	}
}

// DefaultBlock is the default scheduling block size. Small enough that
// a paper-sized 200-trial campaign still spreads across 16+ workers,
// large enough that per-block merge bookkeeping is noise.
const DefaultBlock = 8

// blockSize resolves Campaign.Block.
func (c *Campaign) blockSize() int {
	if c.Block > 0 {
		return c.Block
	}
	return DefaultBlock
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	// Efficiency summarizes the per-trial efficiency (the bars and
	// whiskers of Figures 2, 4 and 5).
	Efficiency stats.Summary
	// WallTime summarizes the per-trial wall time in minutes.
	WallTime stats.Summary
	// Efficiencies holds every trial's efficiency, in trial order. It is
	// opt-in: only the exact-slice sink (the default when Campaign.Sink
	// is nil) populates it, for callers that need per-trial values — the
	// Welch/paired significance tests of Section IV-F, exact quantiles.
	// Streaming sinks leave it nil and carry EfficiencySketch instead.
	Efficiencies []float64
	// EfficiencySketch, when non-nil, is the streaming sink's log-bucket
	// quantile sketch over per-trial efficiencies (exact N/mean/std/
	// min/max, bucket-interpolated quantiles). nil on exact-sink runs.
	EfficiencySketch *stats.Sketch
	// WallTimeSketch is the streaming counterpart for per-trial wall
	// times in minutes. nil on exact-sink runs.
	WallTimeSketch *stats.Sketch
	// MeanBreakdown is the across-trials mean of each Figure 3
	// category, in minutes.
	MeanBreakdown Breakdown
	// BreakdownShare is MeanBreakdown normalized by the mean wall time
	// (the Figure 3 percentages, as fractions summing to 1).
	BreakdownShare Breakdown
	// Completed counts trials that finished before the wall-time cap.
	Completed int
	// Trials echoes the campaign size.
	Trials int
	// MeanFailures is the mean per-trial failure count by severity.
	MeanFailures []float64
	// MeanScratchRestarts is the mean per-trial count of recoveries
	// that found no usable checkpoint.
	MeanScratchRestarts float64
}

// Run executes the campaign. Each worker goroutine builds one Engine
// and drives all of its trials through it, so the per-trial hot path
// allocates nothing; per-trial seeding (Seed.Trial(i)) makes the
// aggregate deterministic for a given Campaign.Seed regardless of
// scheduling, worker count, or engine reuse. Results stream through
// the campaign's sink (exact-slice by default — see CampaignSink);
// with a Checkpoint config, Run periodically persists the sink's
// merged prefix and can resume from it bitwise-exactly.
func (c Campaign) Run() (CampaignResult, error) {
	if err := c.validate(); err != nil {
		return CampaignResult{}, err
	}
	r, err := c.open()
	if err != nil {
		return CampaignResult{}, err
	}
	halted, err := r.runBlocks(r.saved, c.Trials)
	if err != nil {
		return CampaignResult{}, err
	}
	if halted {
		return CampaignResult{}, ErrCampaignHalted
	}
	if err := r.flush(c.Trials); err != nil {
		r.end(c.Trials, RunStateFailed, err)
		return CampaignResult{}, err
	}
	return r.finish(c.Trials)
}

// campaignRun is one run of a validated campaign into its sink. It may
// span several runBlocks calls (a paired campaign's batches), so it
// carries the merged prefix at which HaltAfter halts (0 = never),
// counted from where the run resumed, and the prefix the checkpoint
// file holds.
type campaignRun struct {
	c             *Campaign
	sink          CampaignSink
	haltAt, saved int
}

// open is Run's prologue, shared with PairedCampaign.Run: it resolves
// the sink (a pre-sized ExactSink when none is set) and, when resuming,
// loads the checkpoint into it. The run continues from r.saved.
func (c *Campaign) open() (*campaignRun, error) {
	r := &campaignRun{c: c, sink: c.resolveSink()}
	if ck := c.Checkpoint; ck != nil {
		if ck.Resume {
			// validate() guarantees the sink is portable when Checkpoint
			// is set.
			next, err := c.loadCheckpoint(r.sink.(PortableSink))
			if err != nil {
				return nil, err
			}
			r.saved = next
		}
		if ck.HaltAfter > 0 {
			r.haltAt = r.saved + ck.HaltAfter
		}
	}
	return r, nil
}

// finish is Run's epilogue, shared with PairedCampaign.Run: the final
// progress update of a run that merged trials [0, merged), and the
// sink's result.
func (r *campaignRun) finish(merged int) (CampaignResult, error) {
	r.end(merged, RunStateComplete, nil)
	return r.sink.Result()
}

// end sends the final progress update of a run that stopped in state
// with trials [0, merged) merged.
func (r *campaignRun) end(merged int, state RunState, err error) {
	r.c.notify(ProgressUpdate{Limit: merged, Merged: merged, State: state, Final: true, Err: err})
}

// flush writes the merged prefix [0, next) to the checkpoint file, if
// the campaign has one and the file does not already hold it.
func (r *campaignRun) flush(next int) error {
	ck := r.c.Checkpoint
	if ck == nil || next == r.saved {
		return nil
	}
	err := r.c.writeSinkFile(ck.Path, r.sink.(PortableSink), 0, next)
	if err == nil {
		r.saved = next
	}
	return err
}

// validate checks the campaign's invariants (shared by Run and
// PairedCampaign.Run).
func (c Campaign) validate() error {
	if c.Trials <= 0 {
		return errors.New("sim: campaign needs at least one trial")
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative Workers %d", c.Workers)
	}
	if c.Workers > maxWorkers {
		return fmt.Errorf("sim: Workers %d exceeds limit %d", c.Workers, maxWorkers)
	}
	if c.Block < 0 {
		return fmt.Errorf("sim: negative Block %d", c.Block)
	}
	if ck := c.Checkpoint; ck != nil {
		if ck.Path == "" {
			return errors.New("sim: CheckpointConfig needs a Path")
		}
		if ck.Interval <= 0 || ck.Interval > c.Trials {
			return fmt.Errorf("sim: checkpoint interval %d outside [1, Trials=%d]", ck.Interval, c.Trials)
		}
		if c.Sink != nil {
			if _, ok := c.Sink.(PortableSink); !ok {
				return fmt.Errorf("sim: sink %T cannot checkpoint (needs PortableSink)", c.Sink)
			}
		}
	}
	return nil
}

// runBlocks executes trials [first, limit) of the validated campaign
// through sink. The trial range is cut into fixed-size blocks
// (blockSize trials; the partition ignores Workers entirely), the first
// one clipped at first when first is not block-aligned (checkpoints and
// shard boundaries always are; a paired campaign's sequential batches
// need not be); block b belongs statically to worker b mod W, each
// worker folds its block into a fresh SinkShard in ascending trial
// order, and completed shards merge into the sink in ascending block
// order under the prefix merger below — so the sink's folds see the
// exact same sequences in the exact same order for every worker count,
// which is what makes streaming aggregation, checkpoint/resume and
// shard merges bitwise deterministic. Returns halted=true when the
// merged prefix reached r.haltAt. With a checkpoint config, the merged
// prefix is written every Interval trials and flushed when the call
// halts; a call that completes leaves the final flush to its caller,
// which knows where the run ends.
func (r *campaignRun) runBlocks(first, limit int) (halted bool, err error) {
	c, sink, ck := r.c, r.sink, r.c.Checkpoint
	if first >= limit {
		// Resuming a completed campaign: nothing to run.
		return false, nil
	}
	c.notify(ProgressUpdate{First: first, Limit: limit, Merged: first, State: RunStateRunning})
	B := c.blockSize()
	firstBlock := first / B
	endBlock := (limit + B - 1) / B
	nBlocks := endBlock - firstBlock
	workers := c.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nBlocks {
		workers = nBlocks
	}

	// Prefix merger: a shard that arrives in order merges at once, and
	// an early one parks in pending until the blocks before it have
	// merged, so shards merge in ascending block order. mergedTrials is
	// therefore always the length of the contiguous merged prefix — the
	// only thing a checkpoint may persist. The first error, runErr, stops
	// every worker at its next block.
	var (
		mergeMu      sync.Mutex
		pending      = make(map[int]SinkShard)
		nextBlock    = firstBlock
		mergedTrials = first
		runErr       error
	)
	var haltFlag atomic.Bool
	fail := func(err error) { // under mergeMu
		if runErr == nil {
			runErr = err
		}
		haltFlag.Store(true)
	}
	submit := func(b int, shard SinkShard) {
		mergeMu.Lock()
		defer mergeMu.Unlock()
		if runErr != nil {
			return
		}
		if b != nextBlock {
			// Early: it waits for the blocks before it. Nothing merged,
			// so there is nothing to checkpoint, report or halt on.
			pending[b] = shard
			return
		}
		// In order: merge it, then every parked block it releases.
		for {
			if err := sink.Merge(shard); err != nil {
				fail(err)
				return
			}
			nextBlock++
			mergedTrials = min(nextBlock*B, limit)
			next, ok := pending[nextBlock]
			if !ok {
				break
			}
			delete(pending, nextBlock)
			shard = next
		}
		ckpted := false
		if ck != nil && mergedTrials < c.Trials && mergedTrials-r.saved >= ck.Interval {
			if err := r.flush(mergedTrials); err != nil {
				fail(err)
				return
			}
			ckpted = true
		}
		// Under mergeMu by design: updates arrive in merged-prefix order,
		// so sidecar writers never see progress move backwards.
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
			State: RunStateRunning, Checkpointed: ckpted})
		if r.haltAt > 0 && mergedTrials >= r.haltAt {
			haltFlag.Store(true)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var obs Observer
			if c.ObserverFactory != nil {
				obs = c.ObserverFactory(w)
			}
			// Every worker builds from the same scenario, so a build
			// error is every worker's, and any one of them reports it.
			eng, err := NewEngine(c.Scenario)
			if err != nil {
				mergeMu.Lock()
				fail(err)
				mergeMu.Unlock()
				return
			}
			eng.Observe(obs)
			for b := firstBlock + w; b < endBlock; b += workers {
				if haltFlag.Load() {
					return
				}
				lo := max(b*B, first)
				hi := min((b+1)*B, limit)
				shard := sink.Shard()
				for i := lo; i < hi; i++ {
					if c.TrialStart != nil {
						c.TrialStart(w, i)
					}
					res := eng.runSeed(c.Seed.Trial(i))
					shard.Consume(i, res)
					if c.TrialDone != nil {
						c.TrialDone(*res)
					}
				}
				submit(b, shard)
			}
		}(w)
	}
	wg.Wait()

	if runErr != nil {
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
			State: RunStateFailed, Final: true, Err: runErr})
		return false, runErr
	}
	if haltFlag.Load() {
		c.notify(ProgressUpdate{First: first, Limit: limit, Merged: mergedTrials,
			State: RunStateHalted, Final: true})
		if err := r.flush(mergedTrials); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// aggregateResults is the order-fixed sequential fold behind
// ExactSink.Result: trial order, Welford accumulation order and
// normalization are all fixed, so any block partition that reconstructs
// the same ordered trial sequence aggregates to the same bits.
func aggregateResults(L int, results []TrialResult) CampaignResult {
	out := CampaignResult{Trials: len(results)}
	var eff, wall stats.Sample
	out.MeanFailures = make([]float64, L)
	out.Efficiencies = make([]float64, len(results))
	for i := range results {
		r := &results[i]
		eff.Add(r.Efficiency)
		wall.Add(r.WallTime)
		out.Efficiencies[i] = r.Efficiency
		out.MeanBreakdown.Add(r.Breakdown)
		if r.Completed {
			out.Completed++
		}
		for s := 0; s < L; s++ {
			out.MeanFailures[s] += float64(r.Failures[s])
		}
		out.MeanScratchRestarts += float64(r.ScratchRestarts)
	}
	n := float64(len(results))
	out.MeanBreakdown.Scale(1 / n)
	for s := range out.MeanFailures {
		out.MeanFailures[s] /= n
	}
	out.MeanScratchRestarts /= n
	out.Efficiency = stats.Summarize(&eff)
	out.WallTime = stats.Summarize(&wall)
	if total := out.MeanBreakdown.Total(); total > 0 {
		out.BreakdownShare = out.MeanBreakdown
		out.BreakdownShare.Scale(1 / total)
	}
	return out
}
