package sim

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestKillAndResumeDeterminismMatrix is the kill-and-resume golden: a
// campaign halted at several cut points and resumed — possibly under a
// different worker count — must produce a CampaignResult bitwise
// identical to an uninterrupted run, for both sink kinds. HaltAfter
// plays the kill: it stops the run at a flushed checkpoint, exactly the
// state a SIGKILL after the last atomic checkpoint write leaves behind.
func TestKillAndResumeDeterminismMatrix(t *testing.T) {
	base := goldenD7Campaign(t)
	base.Trials = 64
	for _, kind := range []string{"exact", "stream"} {
		ref := base
		refSink, err := NewSink(kind)
		if err != nil {
			t.Fatal(err)
		}
		ref.Sink = refSink
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{1, 8, 30, 63} {
			for _, workers := range []int{1, 4, 16} {
				for _, resumeWorkers := range []int{workers, 3} {
					path := filepath.Join(t.TempDir(), "campaign.ckpt")

					killed := base
					killed.Workers = workers
					kSink, err := NewSink(kind)
					if err != nil {
						t.Fatal(err)
					}
					killed.Sink = kSink
					killed.Checkpoint = &CheckpointConfig{Path: path, Interval: 8, HaltAfter: cut}
					if _, err := killed.Run(); !errors.Is(err, ErrCampaignHalted) {
						t.Fatalf("%s cut=%d w=%d: want ErrCampaignHalted, got %v", kind, cut, workers, err)
					}

					resumed := base
					resumed.Workers = resumeWorkers
					rSink, err := NewSink(kind)
					if err != nil {
						t.Fatal(err)
					}
					resumed.Sink = rSink
					resumed.Checkpoint = &CheckpointConfig{Path: path, Interval: 8, Resume: true}
					got, err := resumed.Run()
					if err != nil {
						t.Fatalf("%s cut=%d w=%d→%d: resume: %v", kind, cut, workers, resumeWorkers, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s cut=%d w=%d→%d: resumed result differs from uninterrupted run",
							kind, cut, workers, resumeWorkers)
					}
				}
			}
		}
	}
}

// TestResumeOfCompletedCampaign: resuming a checkpoint whose Next equals
// Trials re-reports the final result without running anything.
func TestResumeOfCompletedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.ckpt")
	camp := goldenD7Campaign(t)
	camp.Trials = 24
	camp.Checkpoint = &CheckpointConfig{Path: path, Interval: 8}
	want, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	again := camp
	again.Checkpoint = &CheckpointConfig{Path: path, Interval: 8, Resume: true}
	again.TrialDone = func(TrialResult) { ran.Add(1) }
	got, err := again.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Errorf("resume of a completed campaign re-ran %d trials", ran.Load())
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("resumed-complete result differs")
	}
}

// TestResumeWithoutFileStartsFresh: Resume with no checkpoint on disk is
// a cold start, not an error.
func TestResumeWithoutFileStartsFresh(t *testing.T) {
	camp := goldenD7Campaign(t)
	camp.Trials = 24
	want, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	camp.Checkpoint = &CheckpointConfig{
		Path: filepath.Join(t.TempDir(), "missing.ckpt"), Interval: 8, Resume: true,
	}
	got, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("cold-start-under-resume result differs from plain run")
	}
}

// TestCheckpointIntervalValidation pins satellite 3's bugfix: intervals
// outside [1, Trials] are configuration errors, rejected up front.
func TestCheckpointIntervalValidation(t *testing.T) {
	base := goldenD7Campaign(t)
	base.Trials = 50
	for _, interval := range []int{0, -3, 51} {
		camp := base
		camp.Checkpoint = &CheckpointConfig{
			Path: filepath.Join(t.TempDir(), "x.ckpt"), Interval: interval,
		}
		if _, err := camp.Run(); err == nil {
			t.Errorf("interval %d accepted (Trials=50)", interval)
		} else if !strings.Contains(err.Error(), "interval") {
			t.Errorf("interval %d: unexpected error %v", interval, err)
		}
	}
	camp := base
	camp.Checkpoint = &CheckpointConfig{Interval: 10}
	if _, err := camp.Run(); err == nil {
		t.Error("checkpoint without Path accepted")
	}
}

// TestCheckpointMismatchRejected: a checkpoint from a different seed,
// trial count, block size, or sink kind must not silently mix in.
func TestCheckpointMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d7.ckpt")
	camp := goldenD7Campaign(t)
	camp.Trials = 32
	camp.Checkpoint = &CheckpointConfig{Path: path, Interval: 8, HaltAfter: 8}
	if _, err := camp.Run(); !errors.Is(err, ErrCampaignHalted) {
		t.Fatal(err)
	}
	mutate := map[string]func(*Campaign){
		"seed":   func(c *Campaign) { c.Seed = seed("other") },
		"trials": func(c *Campaign) { c.Trials = 40 },
		"block":  func(c *Campaign) { c.Block = 16 },
		"sink":   func(c *Campaign) { c.Sink = NewStreamSink() },
	}
	for name, mut := range mutate {
		other := goldenD7Campaign(t)
		other.Trials = 32
		mut(&other)
		other.Checkpoint = &CheckpointConfig{Path: path, Interval: 8, Resume: true}
		if _, err := other.Run(); err == nil {
			t.Errorf("%s mismatch: foreign checkpoint accepted", name)
		}
	}
}

// TestShardMergeGolden: the golden D7 campaign split into 4 shard files
// (each run with a different worker count) merges into the exact golden
// bit patterns of engine_test.go — multi-process sharding is invisible
// in the result.
func TestShardMergeGolden(t *testing.T) {
	dir := t.TempDir()
	base := goldenD7Campaign(t)
	const shards = 4
	paths := make([]string, shards)
	for k := 0; k < shards; k++ {
		camp := base
		camp.Workers = 1 + k*3 // shards may run anywhere, with any parallelism
		paths[k] = filepath.Join(dir, "shard"+string(rune('0'+k))+".json")
		if err := camp.RunShard(paths[k], k, shards); err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
	}
	// Merge in scrambled order — MergeShards sorts by range.
	res, err := base.MergeShards(paths[2], paths[0], paths[3], paths[1])
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "shard/EffMean", res.Efficiency.Mean, 0x3fc5ae3a1eb22e66)
	checkBits(t, "shard/EffStd", res.Efficiency.Std, 0x3f903ae9e1e015c7)
	checkBits(t, "shard/WallMean", res.WallTime.Mean, 0x40a0bf8016ad02e6)
	checkBits(t, "shard/WallStd", res.WallTime.Std, 0x4068d488615fea30)
	checkBits(t, "shard/Eff[0]", res.Efficiencies[0], 0x3fc566c8f6676029)
	checkBits(t, "shard/Eff[63]", res.Efficiencies[63], 0x3fc647db8abfbc9e)
	checkBits(t, "shard/Eff[199]", res.Efficiencies[199], 0x3fc609f66c819b5c)
	if res.Completed != 200 {
		t.Errorf("Completed = %d, want 200", res.Completed)
	}
	// And the whole-result check against a plain run.
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Error("shard-merged result differs from single-process run")
	}
}

// TestShardMergeStreamDeterministic pins the stream sink's sharding
// contract: for a FIXED shard partition, the merged result is bitwise
// identical no matter how many workers each shard used or in what order
// the files are merged; against a single-process run, every count,
// histogram bucket and min/max is exactly equal and the moments agree
// to float tolerance (shard-level Chan merges regroup the fold tree, so
// moment bits may differ — the exact sink is the bitwise-vs-single-run
// option, see TestShardMergeGolden).
func TestShardMergeStreamDeterministic(t *testing.T) {
	dir := t.TempDir()
	base := goldenD7Campaign(t)
	base.Trials = 100
	single := base
	single.Sink = NewStreamSink()
	want, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	run := func(tag string, workers func(k int) int) CampaignResult {
		t.Helper()
		paths := make([]string, shards)
		for k := 0; k < shards; k++ {
			camp := base
			camp.Sink = NewStreamSink()
			camp.Workers = workers(k)
			paths[k] = filepath.Join(dir, tag+string(rune('0'+k))+".json")
			if err := camp.RunShard(paths[k], k, shards); err != nil {
				t.Fatalf("%s shard %d: %v", tag, k, err)
			}
		}
		merged := base
		merged.Sink = NewStreamSink()
		res, err := merged.MergeShards(paths[2], paths[0], paths[1])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run("a", func(k int) int { return 2 + k })
	b := run("b", func(k int) int { return 7 - k })
	if !reflect.DeepEqual(a, b) {
		t.Error("same shard partition, different worker counts: merged bits differ")
	}
	if a.Trials != want.Trials || a.Completed != want.Completed ||
		a.Efficiency.N != want.Efficiency.N ||
		a.Efficiency.Min != want.Efficiency.Min || a.Efficiency.Max != want.Efficiency.Max {
		t.Errorf("sharded counts/extrema differ from single run: %+v vs %+v", a.Efficiency, want.Efficiency)
	}
	if !reflect.DeepEqual(a.MeanFailures, want.MeanFailures) {
		t.Errorf("MeanFailures differ: %v vs %v", a.MeanFailures, want.MeanFailures)
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		if a.EfficiencySketch.Quantile(q) != want.EfficiencySketch.Quantile(q) {
			t.Errorf("q=%v differs: sharded %v vs single %v (bucket counts must be exactly equal)",
				q, a.EfficiencySketch.Quantile(q), want.EfficiencySketch.Quantile(q))
		}
	}
	if d := math.Abs(a.Efficiency.Mean - want.Efficiency.Mean); d > 1e-13 {
		t.Errorf("sharded mean %v vs single %v", a.Efficiency.Mean, want.Efficiency.Mean)
	}
	if d := math.Abs(a.Efficiency.Std - want.Efficiency.Std); d > 1e-13 {
		t.Errorf("sharded std %v vs single %v", a.Efficiency.Std, want.Efficiency.Std)
	}
}

// TestShardMergeRejectsGapsAndForeignFiles: shard sets that do not tile
// the campaign, and files from other campaigns, are rejected.
func TestShardMergeRejectsGapsAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	base := goldenD7Campaign(t)
	base.Trials = 64
	paths := make([]string, 4)
	for k := range paths {
		paths[k] = filepath.Join(dir, "p"+string(rune('0'+k))+".json")
		if err := base.RunShard(paths[k], k, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := base.MergeShards(paths[0], paths[2], paths[3]); err == nil {
		t.Error("gap in shard coverage accepted")
	}
	if _, err := base.MergeShards(paths[0], paths[1]); err == nil {
		t.Error("truncated shard coverage accepted")
	}
	other := base
	other.Seed = seed("other-campaign")
	if _, err := other.MergeShards(paths...); err == nil {
		t.Error("foreign shard files accepted")
	}
	if err := base.RunShard(filepath.Join(dir, "bad.json"), 4, 4); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestShardRangeTiles: ShardRange always tiles [0, trials) exactly with
// block-aligned boundaries.
func TestShardRangeTiles(t *testing.T) {
	for _, tc := range []struct{ trials, block, of int }{
		{200, 8, 4}, {200, 8, 7}, {1, 8, 3}, {64, 16, 5}, {1000, 7, 9},
	} {
		want := 0
		for k := 0; k < tc.of; k++ {
			lo, hi := ShardRange(tc.trials, tc.block, k, tc.of)
			if lo != want {
				t.Errorf("%+v shard %d: lo=%d, want %d", tc, k, lo, want)
			}
			if lo%tc.block != 0 {
				t.Errorf("%+v shard %d: lo=%d not block-aligned", tc, k, lo)
			}
			want = hi
		}
		if want != tc.trials {
			t.Errorf("%+v: shards cover [0,%d), want [0,%d)", tc, want, tc.trials)
		}
	}
}

// TestCheckpointFileGarbageRejected: non-checkpoint files fail cleanly.
func TestCheckpointFileGarbageRejected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.json": "{not json",
		"wrong.json":   `{"format":"mlckpt-flight","version":1}`,
		"future.json":  `{"format":"mlckpt-campaign","version":99}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSinkFile(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
