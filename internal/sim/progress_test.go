package sim

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// collectUpdates is a Progress hook that records every update (it runs
// under the merge lock, so no extra synchronization is needed for the
// runner's calls; the mutex guards the final read from the test
// goroutine).
type collectUpdates struct {
	mu  sync.Mutex
	ups []ProgressUpdate
}

func (c *collectUpdates) hook(u ProgressUpdate) {
	c.mu.Lock()
	c.ups = append(c.ups, u)
	c.mu.Unlock()
}

func (c *collectUpdates) all() []ProgressUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ProgressUpdate(nil), c.ups...)
}

// TestProgressUpdatesMonotoneAndFinal: a successful run emits an
// initial running update, monotonically non-decreasing merged counts,
// and exactly one final update in state complete covering every trial.
func TestProgressUpdatesMonotoneAndFinal(t *testing.T) {
	var col collectUpdates
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(200, 600), Plan: planBoth(2, 3)},
		Trials:   100,
		Workers:  4,
		Seed:     seed("progress-basic"),
		Progress: col.hook,
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	ups := col.all()
	if len(ups) < 2 {
		t.Fatalf("got %d updates, want at least initial+final", len(ups))
	}
	if ups[0].State != RunStateRunning || ups[0].Merged != 0 {
		t.Fatalf("first update = %+v, want running at 0 merged", ups[0])
	}
	finals := 0
	prev := -1
	for _, u := range ups {
		if u.Merged < prev {
			t.Fatalf("merged went backwards: %d after %d", u.Merged, prev)
		}
		prev = u.Merged
		if u.First != 0 || u.Limit != 100 || u.Total != 100 {
			t.Fatalf("update range %+v, want [0,100) of 100", u)
		}
		if u.Final {
			finals++
			if u.State != RunStateComplete || u.Merged != 100 || u.Err != nil {
				t.Fatalf("final update = %+v, want complete at 100", u)
			}
		}
	}
	if finals != 1 {
		t.Fatalf("got %d final updates, want 1", finals)
	}
}

// TestProgressCheckpointedFlag: with a checkpoint config, at least one
// running update is flagged Checkpointed, and the flagged merged counts
// line up with interval boundaries (block-aligned).
func TestProgressCheckpointedFlag(t *testing.T) {
	var col collectUpdates
	path := filepath.Join(t.TempDir(), "ck.json")
	camp := Campaign{
		Scenario:   Scenario{System: twoLevel(200, 600), Plan: planBoth(2, 3)},
		Trials:     200,
		Workers:    4,
		Seed:       seed("progress-ckpt"),
		Checkpoint: &CheckpointConfig{Path: path, Interval: 32},
		Progress:   col.hook,
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	ckpted := 0
	for _, u := range col.all() {
		if u.Checkpointed {
			ckpted++
			if u.Merged%DefaultBlock != 0 {
				t.Fatalf("checkpointed update at non-block-aligned %d", u.Merged)
			}
		}
	}
	if ckpted == 0 {
		t.Fatal("no update carried the Checkpointed flag")
	}
}

// TestProgressFailedFinal: a failing campaign's last update is final,
// failed, carries the run error, and reports the partial merged prefix.
// The campaign fails at its first checkpoint write, into a directory
// that does not exist.
func TestProgressFailedFinal(t *testing.T) {
	var col collectUpdates
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(100, 300), Plan: planBoth(2, 3)},
		Trials:   300,
		Workers:  8,
		Seed:     seed("progress-fail"),
		Checkpoint: &CheckpointConfig{
			Path: filepath.Join(t.TempDir(), "missing", "fail.ckpt"), Interval: 16,
		},
		Progress: col.hook,
	}
	_, err := camp.Run()
	if err == nil {
		t.Fatal("campaign did not fail")
	}
	ups := col.all()
	last := ups[len(ups)-1]
	if !last.Final || last.State != RunStateFailed {
		t.Fatalf("last update = %+v, want final failed", last)
	}
	if !errors.Is(last.Err, err) && last.Err.Error() != err.Error() {
		t.Fatalf("final update error %v, run error %v", last.Err, err)
	}
	if last.Merged >= 300 {
		t.Fatalf("failed run reports all %d trials merged", last.Merged)
	}
}

// TestProgressHaltedFinal: HaltAfter produces a final halted update at
// the halt point.
func TestProgressHaltedFinal(t *testing.T) {
	var col collectUpdates
	path := filepath.Join(t.TempDir(), "ck.json")
	camp := Campaign{
		Scenario:   Scenario{System: twoLevel(200, 600), Plan: planBoth(2, 3)},
		Trials:     200,
		Workers:    2,
		Seed:       seed("progress-halt"),
		Checkpoint: &CheckpointConfig{Path: path, Interval: 16, HaltAfter: 48},
		Progress:   col.hook,
	}
	if _, err := camp.Run(); !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("err = %v, want ErrCampaignHalted", err)
	}
	ups := col.all()
	last := ups[len(ups)-1]
	if !last.Final || last.State != RunStateHalted {
		t.Fatalf("last update = %+v, want final halted", last)
	}
	if last.Merged < 48 || last.Merged >= 200 {
		t.Fatalf("halted at %d merged, want in [48, 200)", last.Merged)
	}
}

// TestProgressShardRange: a shard run reports its own block-aligned
// range against the whole campaign's Total, finishing complete.
func TestProgressShardRange(t *testing.T) {
	var col collectUpdates
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(200, 600), Plan: planBoth(2, 3)},
		Trials:   96,
		Workers:  3,
		Seed:     seed("progress-shard"),
		Progress: col.hook,
	}
	path := filepath.Join(t.TempDir(), "shard1.json")
	if err := camp.RunShard(path, 1, 4); err != nil {
		t.Fatal(err)
	}
	lo, hi := ShardRange(96, DefaultBlock, 1, 4)
	ups := col.all()
	last := ups[len(ups)-1]
	if !last.Final || last.State != RunStateComplete {
		t.Fatalf("last shard update = %+v, want final complete", last)
	}
	for _, u := range ups {
		if u.First != lo || u.Limit != hi || u.Total != 96 {
			t.Fatalf("shard update %+v, want range [%d,%d) of 96", u, lo, hi)
		}
	}
	if last.Merged != hi {
		t.Fatalf("shard final merged %d, want %d", last.Merged, hi)
	}
}
