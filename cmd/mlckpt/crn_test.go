package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runStderr runs the CLI with os.Stderr redirected to a file (where the
// -log-json events go) and returns stdout, stderr and the error.
func runStderr(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	var out bytes.Buffer
	err = run(args, &out)
	os.Stderr = saved
	stderr, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return out.String(), string(stderr), err
}

// events decodes a -log-json event log.
func events(t *testing.T, log string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// truncateCheckpoint rewrites an exact-sink checkpoint as if its run had
// been killed after next trials: the header's next and the state's
// trial list are cut back, keeping every number's exact digits.
func truncateCheckpoint(t *testing.T, path string, next int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var f map[string]any
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	state := f["state"].(map[string]any)
	state["trials"] = state["trials"].([]any)[:next]
	f["next"] = next
	if data, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCRNCampaignFlags: under -crn every campaign flag reaches the
// technique arms or fails loudly; none is silently dropped.
func TestCRNCampaignFlags(t *testing.T) {
	crn := func(extra ...string) []string {
		return append([]string{"-system", "D4", "-techniques", "di,moody", "-crn", "-trials", "24"}, extra...)
	}
	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"checkpoint writes one file per arm", func(t *testing.T) {
			dir := t.TempDir()
			if _, _, err := runStderr(t, crn("-checkpoint", dir)...); err != nil {
				t.Fatal(err)
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 2 {
				t.Fatalf("checkpoint files = %v, want one per arm", files)
			}
		}},
		{"resume matches the uninterrupted run", func(t *testing.T) {
			dir := t.TempDir()
			want, _, err := runStderr(t, crn("-json")...)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := runStderr(t, crn("-checkpoint", dir, "-checkpoint-interval", "8")...); err != nil {
				t.Fatal(err)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			for _, f := range files {
				truncateCheckpoint(t, f, 8)
			}
			got, stderr, err := runStderr(t, crn("-json", "-checkpoint", dir, "-resume", "-log-json")...)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Error("resumed -json output differs from the uninterrupted run")
			}
			resumed := map[string]bool{}
			for _, ev := range events(t, stderr) {
				if ev["msg"] == "resume" && ev["trials_next"] == float64(8) {
					resumed[ev["label"].(string)] = true
				}
			}
			if !resumed["D4-di"] || !resumed["D4-moody"] {
				t.Errorf("arms resumed from trial 8: %v, want both", resumed)
			}
		}},
		{"log-json brackets every arm", func(t *testing.T) {
			_, stderr, err := runStderr(t, crn("-log-json")...)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string][]string{}
			for _, ev := range events(t, stderr) {
				label, _ := ev["label"].(string)
				seen[label] = append(seen[label], ev["msg"].(string))
			}
			for _, label := range []string{"D4-di", "D4-moody"} {
				msgs := seen[label]
				if len(msgs) < 2 || msgs[0] != "campaign_start" || msgs[len(msgs)-1] != "campaign_end" {
					t.Errorf("%s: events %v, want campaign_start ... campaign_end", label, msgs)
				}
			}
		}},
		{"json and out write the comparison", func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "o.json")
			stdout, _, err := runStderr(t, crn("-json", "-out", out)...)
			if err != nil {
				t.Fatal(err)
			}
			var rep experiments.VarianceReport
			if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
				t.Fatalf("-json is not a comparison document: %v\n%s", err, stdout)
			}
			if rep.System != "D4" || len(rep.Cells) != 2 || rep.Paired.TrialsRun != 24 || len(rep.Paired.Comparisons) != 1 {
				t.Errorf("comparison document = %+v", rep)
			}
			if data, err := os.ReadFile(out); err != nil || string(data) != stdout {
				t.Errorf("-out file differs from -json stdout (err %v)", err)
			}
		}},
		{"stream is an error naming the flag", func(t *testing.T) {
			if _, _, err := runStderr(t, crn("-stream")...); err == nil || !strings.Contains(err.Error(), "-stream") {
				t.Errorf("err = %v, want an error naming -stream", err)
			}
		}},
		{"unusable ci-target is an error", func(t *testing.T) {
			for _, target := range []string{"-1", "NaN"} {
				if _, _, err := runStderr(t, crn("-ci-target", target)...); err == nil {
					t.Errorf("-ci-target %s accepted", target)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.test)
	}
}

// TestCRNCheckAndFlight: -check and -flight reach every CRN arm, as
// they reach every plain cell.
func TestCRNCheckAndFlight(t *testing.T) {
	crn := []string{"-system", "D4", "-techniques", "di,moody", "-crn", "-trials", "24"}
	plain, _, err := runStderr(t, crn...)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("check reports every arm", func(t *testing.T) {
		checked, _, err := runStderr(t, append([]string{"-check"}, crn...)...)
		if err != nil {
			t.Fatal(err)
		}
		reports := map[string]int{}
		var stripped strings.Builder
		for _, line := range strings.SplitAfter(checked, "\n") {
			if tech, ok := strings.CutPrefix(line, "conformance["); ok {
				reports[tech[:strings.IndexByte(tech, ']')]]++
				if !strings.Contains(line, ": 24 trials,") || !strings.Contains(line, "all invariants held") {
					t.Errorf("conformance line %q", line)
				}
				continue
			}
			stripped.WriteString(line)
		}
		if len(reports) != 2 || reports["di"] != 1 || reports["moody"] != 1 {
			t.Errorf("conformance lines per arm = %v, want one each for di and moody", reports)
		}
		if stripped.String() != plain {
			t.Errorf("-check changed the comparison:\n--- -crn:\n%s--- -crn -check, reports stripped:\n%s", plain, stripped.String())
		}
	})
	t.Run("flight dumps every arm", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f.json")
		if _, _, err := runStderr(t, append([]string{"-flight", path}, crn...)...); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := trace.ReadFlight(f)
		if err != nil {
			t.Fatal(err)
		}
		labels := map[string]int{}
		for _, s := range d.Streams {
			labels[s.Label]++
		}
		if len(labels) != 2 || labels["di"] == 0 || labels["moody"] == 0 {
			t.Errorf("streams per label = %v, want streams from di and moody only", labels)
		}
	})
}

// TestOneWallCap: plain cells and CRN arms cap a trial at the engine's
// default 400·T_B, as /v1/simulate does. With an MTBF of 1 minute and
// 5-minute checkpoints, every trial of this system hits the cap.
func TestOneWallCap(t *testing.T) {
	args := []string{"-mtbf", "1", "-probs", "1", "-times", "5", "-tb", "10",
		"-techniques", "daly,dauwe", "-trials", "4"}
	const want = sim.DefaultMaxWallFactor * 10
	r, _ := jsonRun(t, args...)
	for _, tr := range r.Results {
		if got := tr.Sim.WallTime.Max; got != want {
			t.Errorf("%s: WallTime.Max = %v, want %v", tr.Technique, got, want)
		}
	}
	stdout, _, err := runStderr(t, append(args, "-crn", "-json")...)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.VarianceReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if got := c.Sim.WallTime.Max; got != want {
			t.Errorf("crn %s: WallTime.Max = %v, want %v", c.Technique, got, want)
		}
	}
}
