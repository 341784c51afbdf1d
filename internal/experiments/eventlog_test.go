package experiments

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestRunCampaignEmitsEvents: with Options.Events set, a checkpointed
// campaign emits run-ID-correlated start, checkpoint, and end records.
func TestRunCampaignEmitsEvents(t *testing.T) {
	sys := d4(t)
	var sb strings.Builder
	opt := Options{
		Events:             obs.NewEventLog(&sb, "evrun01"),
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: 8,
	}
	camp := sim.Campaign{
		Scenario: opt.scenarioFor(sys, pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}),
		Trials:   32,
		Workers:  2,
		Seed:     rng.Campaign(7, "events").Scenario(sys.Name),
	}
	if _, err := opt.runCampaign(camp, Cell{System: sys.Name}); err != nil {
		t.Fatal(err)
	}

	var msgs []string
	checkpoints := 0
	var last map[string]any
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if m["run_id"] != "evrun01" {
			t.Fatalf("event missing run_id: %v", m)
		}
		msgs = append(msgs, m["msg"].(string))
		if m["msg"] == "checkpoint" {
			checkpoints++
			if m["path"] == "" || m["trials_merged"].(float64) <= 0 {
				t.Fatalf("checkpoint event: %v", m)
			}
		}
		last = m
	}
	if len(msgs) < 3 || msgs[0] != "campaign_start" {
		t.Fatalf("events = %v, want campaign_start first", msgs)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint events")
	}
	if last["msg"] != "campaign_end" || last["state"] != "complete" ||
		last["trials_merged"] != float64(32) {
		t.Fatalf("last event = %v, want complete campaign_end at 32", last)
	}
}

// TestRunCampaignEventsComposeWithProgress: the event emitter must
// chain, not replace, an already-installed Progress hook (the sidecar
// writer and the event log share the campaign's hook slot).
func TestRunCampaignEventsComposeWithProgress(t *testing.T) {
	sys := d4(t)
	var sb strings.Builder
	opt := Options{Events: obs.NewEventLog(&sb, "evrun02")}
	seen := 0
	camp := sim.Campaign{
		Scenario: opt.scenarioFor(sys, pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}),
		Trials:   16,
		Seed:     rng.Campaign(7, "events").Scenario(sys.Name),
		Progress: func(u sim.ProgressUpdate) { seen++ },
	}
	if _, err := opt.runCampaign(camp, Cell{System: sys.Name}); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("inner Progress hook was not called")
	}
	if !strings.Contains(sb.String(), "campaign_end") {
		t.Fatal("event log missing campaign_end")
	}
}

// TestConcurrentCampaignEventsGroupByLabel runs two labelled,
// checkpointed campaigns at once into one EventLog, as overlapping
// figure rows do. Every record must carry its campaign's label, and the
// records grouped by label must read as each campaign's own lifecycle:
// start first, its own checkpoints, end last at its own trial count.
func TestConcurrentCampaignEventsGroupByLabel(t *testing.T) {
	sys := d4(t)
	var sb strings.Builder
	opt := Options{
		Events:             obs.NewEventLog(&sb, "evrun03"),
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: 8,
	}
	trials := map[string]int{"D4-dauwe": 32, "D4-daly": 48}
	var wg sync.WaitGroup
	errs := make(chan error, len(trials))
	for label, n := range trials {
		wg.Add(1)
		go func() {
			defer wg.Done()
			camp := sim.Campaign{
				Scenario: opt.scenarioFor(sys, pattern.Plan{Tau0: 2, Counts: []int{3}, Levels: []int{1, 2}}),
				Trials:   n,
				Workers:  2,
				Seed:     rng.Campaign(7, "events").Scenario(label),
			}
			_, err := opt.runCampaign(camp, Cell{System: label})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	groups := map[string][]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		label, _ := m["label"].(string)
		if _, ok := trials[label]; !ok {
			t.Fatalf("record without a campaign label: %v", m)
		}
		groups[label] = append(groups[label], m)
	}
	for label, n := range trials {
		recs := groups[label]
		if len(recs) < 3 {
			t.Fatalf("%s: %d records", label, len(recs))
		}
		first, last := recs[0], recs[len(recs)-1]
		if first["msg"] != "campaign_start" || first["trials_total"] != float64(n) {
			t.Fatalf("%s: first record %v, want campaign_start over %d trials", label, first, n)
		}
		if last["msg"] != "campaign_end" || last["trials_merged"] != float64(n) {
			t.Fatalf("%s: last record %v, want campaign_end at %d", label, last, n)
		}
		checkpoints := 0
		for _, m := range recs[1 : len(recs)-1] {
			if m["msg"] != "checkpoint" {
				continue
			}
			checkpoints++
			if path, _ := m["path"].(string); !strings.Contains(path, label) {
				t.Fatalf("%s: checkpoint record for another cell's file: %v", label, m)
			}
		}
		if checkpoints == 0 {
			t.Fatalf("%s: no checkpoint records", label)
		}
	}
}

// TestAblationCampaignLabels runs the policy ablation on one system and
// a two-point sensitivity sweep with an event log and checkpoints: each
// campaign must carry its own label, system and arm (D2-retry,
// D2-escalate; D4-x0.5, D4-x2), on its event records and in its
// checkpoint file's name.
func TestAblationCampaignLabels(t *testing.T) {
	for _, tc := range []struct {
		run    func(Options) error
		labels []string
	}{
		{func(opt Options) error {
			_, err := PolicyAblation(opt, []string{"D2"})
			return err
		}, []string{"D2-retry", "D2-escalate"}},
		{func(opt Options) error {
			_, err := Sensitivity(opt, "D4", []float64{0.5, 2})
			return err
		}, []string{"D4-x0.5", "D4-x2"}},
	} {
		var sb strings.Builder
		dir := t.TempDir()
		opt := testOpts()
		opt.Fast, opt.Trials = true, 16
		opt.Events = obs.NewEventLog(&sb, "evrun04")
		opt.CheckpointDir, opt.CheckpointInterval = dir, 8
		if err := tc.run(opt); err != nil {
			t.Fatal(err)
		}
		starts, ends := map[string]int{}, map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			label, _ := m["label"].(string)
			switch m["msg"] {
			case "campaign_start":
				starts[label]++
			case "campaign_end":
				ends[label]++
			}
		}
		for _, label := range tc.labels {
			if starts[label] != 1 || ends[label] != 1 {
				t.Errorf("%s: %d campaign_start and %d campaign_end records, want 1 each", label, starts[label], ends[label])
			}
			files, err := filepath.Glob(filepath.Join(dir, label+"-*.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 1 {
				t.Errorf("%s: checkpoint files %v, want one", label, files)
			}
		}
		if len(starts) != len(tc.labels) {
			t.Errorf("campaign labels %v, want %v only", starts, tc.labels)
		}
	}
}
