package sidecar

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

func twoLevel(mtbf, tb float64) *system.System {
	return &system.System{
		Name:         "sidecar2",
		MTBF:         mtbf,
		BaselineTime: tb,
		Levels: []system.Level{
			{Checkpoint: 0.333, Restart: 0.333, SeverityProb: 0.833},
			{Checkpoint: 0.833, Restart: 0.833, SeverityProb: 0.167},
		},
	}
}

func testCampaign(name string, trials, workers int) sim.Campaign {
	return sim.Campaign{
		Scenario: sim.Scenario{
			System: twoLevel(200, 600),
			Plan:   pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}},
		},
		Trials:  trials,
		Workers: workers,
		Seed:    rng.Campaign(1234, "sidecartest").Scenario(name),
	}
}

// fakeClock is a deterministic time source for Writer tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.UnixMilli(1_700_000_000_000)} }

func mustRead(t *testing.T, path string) *File {
	t.Helper()
	f, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWriterThrottleAndFlush drives a Writer by hand with a fake clock:
// the first update writes, sub-refresh updates are throttled, elapsed
// refresh / checkpoint flags / final updates write, and SetRegistry +
// Flush enriches the terminal sidecar.
func TestWriterThrottleAndFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.json"+Suffix)
	clock := newFakeClock()
	w := NewWriter(path, Meta{
		RunID: "deadbeefdeadbeef", ConfigDigest: "deadbeefdeadbeef",
		Label: "D7/daly", Shard: 0, Of: 2,
	})
	w.Now = clock.now

	upd := func(merged int, state sim.RunState, ckpt, final bool) {
		w.Update(sim.ProgressUpdate{
			First: 0, Limit: 32, Merged: merged, Total: 64,
			State: state, Checkpointed: ckpt, Final: final,
		})
	}

	upd(0, sim.RunStateRunning, false, false)
	f := mustRead(t, path)
	if f.State != "running" || f.TrialsMerged != 0 || f.Shard != 0 || f.Of != 2 {
		t.Fatalf("first write = %+v", f)
	}
	if f.RefreshMS != 1000 || f.Label != "D7/daly" || f.PID != os.Getpid() {
		t.Fatalf("identity fields = %+v", f)
	}

	clock.advance(200 * time.Millisecond)
	upd(8, sim.RunStateRunning, false, false)
	if f = mustRead(t, path); f.TrialsMerged != 0 {
		t.Fatalf("sub-refresh update was not throttled: merged=%d", f.TrialsMerged)
	}

	clock.advance(900 * time.Millisecond) // 1.1s since last write
	upd(16, sim.RunStateRunning, false, false)
	f = mustRead(t, path)
	if f.TrialsMerged != 16 {
		t.Fatalf("post-refresh update not written: merged=%d", f.TrialsMerged)
	}
	if f.ThroughputPerSec <= 0 || f.ETASeconds <= 0 {
		t.Fatalf("running sidecar missing throughput/ETA: %+v", f)
	}

	clock.advance(100 * time.Millisecond)
	upd(24, sim.RunStateRunning, true, false)
	f = mustRead(t, path)
	if f.TrialsMerged != 24 {
		t.Fatal("checkpoint-flagged update was throttled")
	}
	if f.CheckpointUnixMS != clock.t.UnixMilli() {
		t.Fatalf("checkpoint_unix_ms = %d, want %d", f.CheckpointUnixMS, clock.t.UnixMilli())
	}

	clock.advance(10 * time.Millisecond)
	upd(32, sim.RunStateComplete, false, true)
	f = mustRead(t, path)
	if f.State != "complete" || f.TrialsMerged != 32 || f.ETASeconds != 0 {
		t.Fatalf("final write = %+v", f)
	}
	if f.Registry != nil {
		t.Fatal("registry attached before SetRegistry")
	}

	reg := obs.NewRegistry()
	reg.Counter("sidecar_test_total").Add(7)
	snap := reg.Snapshot()
	w.SetRegistry(&snap)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f = mustRead(t, path)
	if f.State != "complete" {
		t.Fatalf("flush lost terminal state: %q", f.State)
	}
	if f.Registry == nil || len(f.Registry.Counters) != 1 || f.Registry.Counters[0].Value != 7 {
		t.Fatalf("flushed registry = %+v", f.Registry)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

func TestConfigDigest(t *testing.T) {
	a := ConfigDigest("D7", "daly", "1234", "200")
	if len(a) != 16 {
		t.Fatalf("digest %q not 16 hex chars", a)
	}
	if a != ConfigDigest("D7", "daly", "1234", "200") {
		t.Fatal("digest not stable")
	}
	// NUL separators: moving a boundary must change the digest.
	if a == ConfigDigest("D7d", "aly", "1234", "200") {
		t.Fatal("digest ignores part boundaries")
	}
}

func TestValidateRejections(t *testing.T) {
	good := File{
		Format: Format, Version: Version, RunID: "r", State: "running",
		Shard: 0, Of: 1, TrialsFirst: 0, TrialsMerged: 5, TrialsLimit: 10,
		TrialsTotal: 10, StartedUnixMS: 1000, UpdatedUnixMS: 2000, RefreshMS: 1000,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*File)
	}{
		{"format", func(f *File) { f.Format = "other" }},
		{"version", func(f *File) { f.Version = 99 }},
		{"run_id", func(f *File) { f.RunID = "" }},
		{"state", func(f *File) { f.State = "done" }},
		{"shard", func(f *File) { f.Shard = 3 }},
		{"of", func(f *File) { f.Of = 0 }},
		{"merged<first", func(f *File) { f.TrialsMerged = -1 }},
		{"limit<merged", func(f *File) { f.TrialsLimit = 4 }},
		{"total<limit", func(f *File) { f.TrialsTotal = 9 }},
		{"refresh", func(f *File) { f.RefreshMS = 0 }},
		{"timestamps", func(f *File) { f.UpdatedUnixMS = 500 }},
	}
	for _, tc := range cases {
		f := good
		tc.mut(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: invalid sidecar accepted", tc.name)
		}
	}
}

func TestScanSortsAndSkipsInvalid(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f File) {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(digest string, shard, of int) File {
		return File{
			Format: Format, Version: Version, RunID: digest, ConfigDigest: digest,
			State: "running", Shard: shard, Of: of,
			TrialsLimit: 10, TrialsMerged: 5, TrialsTotal: 10,
			StartedUnixMS: 1000, UpdatedUnixMS: 2000, RefreshMS: 1000,
		}
	}
	write("b1"+Suffix, mk("bbbb", 1, 2))
	write("a0"+Suffix, mk("aaaa", 0, 1))
	write("b0"+Suffix, mk("bbbb", 0, 2))
	write("bad"+Suffix, File{Format: "nope"})
	if err := os.WriteFile(filepath.Join(dir, "junk"+Suffix), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	write("notasidecar.json", mk("cccc", 0, 1)) // wrong suffix, ignored

	files, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, fmt.Sprintf("%s/%d", f.ConfigDigest, f.Shard))
	}
	want := []string{"aaaa/0", "bbbb/0", "bbbb/1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order %v, want %v", got, want)
	}

	if _, err := Scan(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing directory did not error")
	}
}

func TestBuildFleetAggregation(t *testing.T) {
	now := time.UnixMilli(2_000_000_000_000)
	mk := func(shard int, state string, first, merged, limit int, updatedAgo time.Duration, tput, eta float64) *File {
		return &File{
			Format: Format, Version: Version, RunID: "rrrr", ConfigDigest: "rrrr",
			State: state, Shard: shard, Of: 4,
			TrialsFirst: first, TrialsMerged: merged, TrialsLimit: limit, TrialsTotal: 400,
			StartedUnixMS:    now.Add(-time.Minute).UnixMilli(),
			UpdatedUnixMS:    now.Add(-updatedAgo).UnixMilli(),
			RefreshMS:        1000,
			ThroughputPerSec: tput, ETASeconds: eta,
		}
	}
	files := []*File{
		mk(0, "running", 0, 50, 100, time.Second, 10, 30),      // healthy
		mk(1, "running", 100, 160, 200, 10*time.Second, 5, 50), // stalled (>3s window)
		mk(2, "complete", 200, 300, 300, 4*time.Second, 0, 0),  // terminal: never stalled
		mk(3, "running", 300, 310, 400, time.Second, 2, 45),    // straggler: 0.1 << median
	}
	fl := BuildFleet(files, now, 0)
	if fl.State != "running" || fl.Running != 3 || fl.Complete != 1 {
		t.Fatalf("fleet = %+v", fl)
	}
	if fl.TrialsTotal != 400 || fl.TrialsMerged != 50+60+100+10 {
		t.Fatalf("fleet trials %d/%d", fl.TrialsMerged, fl.TrialsTotal)
	}
	if fl.ThroughputPerSec != 17 {
		t.Fatalf("fleet throughput %v, want sum of running = 17", fl.ThroughputPerSec)
	}
	if fl.ETASeconds != 50 {
		t.Fatalf("fleet ETA %v, want max over running = 50", fl.ETASeconds)
	}
	if fl.Stalled != 1 || !fl.Shards[1].Stalled || fl.Shards[0].Stalled || fl.Shards[2].Stalled {
		t.Fatalf("stall detection: %+v", fl.Shards)
	}
	if fl.Stragglers != 1 || !fl.Shards[3].Straggler {
		t.Fatalf("straggler detection: %+v", fl.Shards)
	}
	if fl.Terminal() {
		t.Fatal("running fleet reported terminal")
	}

	// State precedence: any failed shard makes the fleet failed.
	files[0].State = "failed"
	files[0].Error = "boom"
	fl = BuildFleet(files, now, 0)
	if fl.State != "failed" || fl.Failed != 1 {
		t.Fatalf("fleet with failed shard = %+v", fl)
	}

	// All-terminal fleets are terminal, and halted outranks complete.
	for _, f := range files {
		f.State = "complete"
		f.Error = ""
	}
	files[2].State = "halted"
	fl = BuildFleet(files, now, 0)
	if fl.State != "halted" || !fl.Terminal() {
		t.Fatalf("terminal fleet = %+v", fl)
	}

	if fl = BuildFleet(nil, now, 0); fl.State != "" || fl.Terminal() {
		t.Fatalf("empty fleet = %+v", fl)
	}
}

func TestFleetWriteText(t *testing.T) {
	now := time.UnixMilli(2_000_000_000_000)
	files := []*File{{
		Format: Format, Version: Version, RunID: "rrrr", Label: "D7/daly",
		State: "running", Shard: 1, Of: 4,
		TrialsFirst: 100, TrialsMerged: 110, TrialsLimit: 200, TrialsTotal: 400,
		StartedUnixMS: now.Add(-time.Minute).UnixMilli(),
		UpdatedUnixMS: now.Add(-20 * time.Second).UnixMilli(),
		RefreshMS:     1000, ThroughputPerSec: 3, ETASeconds: 30,
	}}
	var sb strings.Builder
	if err := BuildFleet(files, now, 0).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fleet running", "D7/daly 1/4", "stalled"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := BuildFleet(nil, now, 0).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no progress sidecars") {
		t.Fatalf("empty render = %q", sb.String())
	}
}

// TestCampaignSidecarComplete runs a real campaign with the Writer as
// its Progress hook and checks the terminal sidecar.
func TestCampaignSidecarComplete(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json"+Suffix)
	w := NewWriter(path, Meta{RunID: "feedfacefeedface", Label: "complete"})
	camp := testCampaign("sidecar-complete", 64, 4)
	camp.Progress = w.Update
	var pool obs.Pool
	camp.ObserverFactory = pool.Observer
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	merged, err := pool.Merged()
	if err != nil {
		t.Fatal(err)
	}
	snap := merged.Snapshot()
	w.SetRegistry(&snap)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f := mustRead(t, path)
	if f.State != "complete" || f.TrialsMerged != 64 || f.TrialsTotal != 64 {
		t.Fatalf("sidecar = %+v", f)
	}
	if f.Fraction() != 1 {
		t.Fatalf("fraction %v", f.Fraction())
	}
	if f.Registry == nil || len(f.Registry.Counters) == 0 {
		t.Fatal("terminal sidecar missing registry")
	}
	if f.PeakRSSBytes <= 0 {
		t.Fatal("peak RSS not recorded")
	}
}

// TestCampaignSidecarFailed: a shard that dies mid-campaign still leaves
// a valid sidecar recording the failed state, the error, and the
// partially merged prefix. The campaign fails at its first checkpoint
// write, into a directory that does not exist.
func TestCampaignSidecarFailed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json"+Suffix)
	w := NewWriter(path, Meta{RunID: "feedfacefeedface", Label: "failing"})
	camp := testCampaign("sidecar-fail", 300, 8)
	camp.Checkpoint = &sim.CheckpointConfig{Path: filepath.Join(dir, "missing", "run.ckpt"), Interval: 16}
	camp.Progress = w.Update
	_, err := camp.Run()
	if err == nil {
		t.Fatal("campaign did not fail")
	}
	f := mustRead(t, path)
	if f.State != "failed" {
		t.Fatalf("state %q, want failed", f.State)
	}
	if f.Error == "" || !strings.Contains(err.Error(), f.Error) {
		t.Fatalf("sidecar error %q does not reflect run error %q", f.Error, err)
	}
	if f.TrialsMerged >= 300 {
		t.Fatalf("failed sidecar claims %d merged of 300", f.TrialsMerged)
	}

	fl := BuildFleet([]*File{f}, time.UnixMilli(f.UpdatedUnixMS), 0)
	if fl.State != "failed" || !fl.Terminal() {
		t.Fatalf("fleet over failed sidecar = %+v", fl)
	}
}

// TestCrossProcessRegistryDeterminism is the fleet-determinism
// satellite: one process observing a whole campaign and four shard
// "processes" each observing their slice must yield byte-identical
// registry snapshots once the shard registries merge, in either order;
// each shard's sidecar embeds its registry's snapshot for readers.
func TestCrossProcessRegistryDeterminism(t *testing.T) {
	const trials = 128
	base := testCampaign("sidecar-fleet", trials, 0)
	base.Scenario.System = twoLevel(150, 450) // enough failures to fill histograms

	// Single process: one observer pool over every trial.
	solo := base
	var soloPool obs.Pool
	solo.ObserverFactory = soloPool.Observer
	solo.Workers = 3
	if _, err := solo.Run(); err != nil {
		t.Fatal(err)
	}
	soloMerged, err := soloPool.Merged()
	if err != nil {
		t.Fatal(err)
	}
	soloJSON, err := json.Marshal(soloMerged.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// Four shard processes, each with its own pool, worker count, and
	// sidecar.
	dir := t.TempDir()
	shards := make([]*obs.Registry, 4)
	for shard := range shards {
		c := base
		c.Workers = 1 + shard
		var pool obs.Pool
		c.ObserverFactory = pool.Observer
		sidecarPath := filepath.Join(dir, fmt.Sprintf("shard%d.json%s", shard, Suffix))
		w := NewWriter(sidecarPath, Meta{
			RunID: "0123456789abcdef", ConfigDigest: "0123456789abcdef",
			Label: "fleet", Shard: shard, Of: 4,
		})
		c.Progress = w.Update
		if err := c.RunShard(filepath.Join(dir, fmt.Sprintf("shard%d.json", shard)), shard, 4); err != nil {
			t.Fatal(err)
		}
		merged, err := pool.Merged()
		if err != nil {
			t.Fatal(err)
		}
		shards[shard] = merged.Registry()
		snap := merged.Snapshot()
		w.SetRegistry(&snap)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(mustRead(t, sidecarPath).Registry)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("shard %d sidecar registry differs from the shard's snapshot", shard)
		}
	}

	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		fleet := obs.NewRegistry()
		for _, shard := range order {
			if err := fleet.Merge(shards[shard]); err != nil {
				t.Fatal(err)
			}
		}
		fleetJSON, err := json.Marshal(fleet.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(fleetJSON) != string(soloJSON) {
			t.Fatalf("shards merged in order %v differ from the single-process registry\nsolo:  %s\nfleet: %s",
				order, soloJSON, fleetJSON)
		}
	}
}
