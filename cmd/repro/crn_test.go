package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// eventsByLabel decodes a -log-json event log into each campaign
// label's messages, in order.
func eventsByLabel(t *testing.T, log string) map[string][]map[string]any {
	t.Helper()
	out := map[string][]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		label, _ := ev["label"].(string)
		out[label] = append(out[label], ev)
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

// TestCRNCampaignFlags: under -crn every campaign flag reaches each
// row's technique arms or fails loudly; none is silently dropped.
// Figure 5 has 10 rows of 3 techniques, so 30 arms.
func TestCRNCampaignFlags(t *testing.T) {
	crn := func(extra ...string) []string {
		return append(append([]string{"-quiet", "-fast", "-trials", "16", "-crn"}, extra...), "fig5")
	}
	const arms = 30
	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"checkpoint writes one file per arm", func(t *testing.T) {
			dir := t.TempDir()
			if _, _, err := runStderr(t, crn("-checkpoint", dir)...); err != nil {
				t.Fatal(err)
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != arms {
				t.Fatalf("%d checkpoint files, want one per arm (%d)", len(files), arms)
			}
		}},
		{"resume matches the uninterrupted run", func(t *testing.T) {
			dir := t.TempDir()
			want, _, err := runStderr(t, crn()...)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := runStderr(t, crn("-checkpoint", dir)...); err != nil {
				t.Fatal(err)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			for _, f := range files {
				truncateCheckpoint(t, f, 8)
			}
			got, stderr, err := runStderr(t, crn("-checkpoint", dir, "-resume", "-log-json")...)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Error("resumed output differs from the uninterrupted run")
			}
			resumed := 0
			for _, evs := range eventsByLabel(t, stderr) {
				for _, ev := range evs {
					if ev["msg"] == "resume" && ev["trials_next"] == float64(8) {
						resumed++
					}
				}
			}
			if len(files) != arms || resumed != arms {
				t.Errorf("%d arms resumed from trial 8 out of %d checkpoints, want %d", resumed, len(files), arms)
			}
		}},
		{"log-json brackets every arm", func(t *testing.T) {
			_, stderr, err := runStderr(t, crn("-log-json")...)
			if err != nil {
				t.Fatal(err)
			}
			byLabel := eventsByLabel(t, stderr)
			if len(byLabel) != arms {
				t.Errorf("events for %d labels, want %d", len(byLabel), arms)
			}
			for label, evs := range byLabel {
				if evs[0]["msg"] != "campaign_start" || evs[len(evs)-1]["msg"] != "campaign_end" {
					t.Errorf("%s: events do not run campaign_start ... campaign_end", label)
				}
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
