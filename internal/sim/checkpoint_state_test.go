package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// editState rewrites the state object of a checkpoint or shard file.
func editState(t *testing.T, path string, edit func(state map[string]any)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(f.State, &state); err != nil {
		t.Fatal(err)
	}
	edit(state)
	if f.State, err = json.Marshal(state); err != nil {
		t.Fatal(err)
	}
	if b, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInconsistentSinkStateRejected edits the state of a 64-trial D7
// campaign's files so that it decodes but disagrees with its header:
// the checkpoint of a run halted at trial 32, and the second of four
// shard files. Before the decoders checked the state, the first two
// edits resumed without an error to a Trials count that disagrees with
// the campaign (and, in the stream sink, with Completed), and the last
// two panicked: an empty failure list in the exact sink, an empty
// failures array in the stream sink on a runner goroutine. Each must now
// fail with an error on both the resume and the shard merge path.
func TestInconsistentSinkStateRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream bool
		edit   func(map[string]any)
	}{
		{"exact/trials-dropped", false, func(s map[string]any) { s["trials"] = s["trials"].([]any)[:3] }},
		{"stream/trials-count", true, func(s map[string]any) { s["trials"] = 3 }},
		{"exact/empty-failure-list", false, func(s map[string]any) { s["trials"].([]any)[0].(map[string]any)["f"] = []any{} }},
		{"stream/empty-failures", true, func(s map[string]any) { s["failures"] = []any{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			camp := func() Campaign {
				c := goldenD7Campaign(t)
				c.Trials = 64
				if tc.stream {
					c.Sink = NewStreamSink()
				}
				return c
			}

			ck := filepath.Join(dir, "d7.ckpt")
			halted := camp()
			halted.Checkpoint = &CheckpointConfig{Path: ck, Interval: 8, HaltAfter: 32}
			if _, err := halted.Run(); err != ErrCampaignHalted {
				t.Fatalf("halt: %v", err)
			}
			editState(t, ck, tc.edit)
			resumed := camp()
			resumed.Checkpoint = &CheckpointConfig{Path: ck, Interval: 8, Resume: true}
			if res, err := resumed.Run(); err == nil {
				t.Errorf("resume accepted the edited checkpoint: Trials %d, Completed %d", res.Trials, res.Completed)
			}

			paths := make([]string, 4)
			for k := range paths {
				paths[k] = filepath.Join(dir, fmt.Sprintf("shard%d.json", k))
				if err := camp().RunShard(paths[k], k, 4); err != nil {
					t.Fatal(err)
				}
			}
			editState(t, paths[1], tc.edit)
			if res, err := camp().MergeShards(paths...); err == nil {
				t.Errorf("merge accepted the edited shard: Trials %d, Completed %d", res.Trials, res.Completed)
			}
		})
	}
}
