package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonRun executes run with -json and decodes the stdout document.
func jsonRun(t *testing.T, args ...string) (runResults, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-json"), &out); err != nil {
		t.Fatal(err)
	}
	var r runResults
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out.String())
	}
	return r, out.String()
}

// TestJSONOutput: -json replaces the human rendering with one JSON
// document; -out writes the identical document to a file.
func TestJSONOutput(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "results.json")
	r, raw := jsonRun(t, "-system", "D4", "-techniques", "daly,dauwe", "-trials", "20", "-out", outFile)
	if strings.Contains(raw, "predicted eff") {
		t.Errorf("-json output still contains the table header:\n%s", raw)
	}
	if r.System != "D4" || len(r.Results) != 2 {
		t.Fatalf("unexpected document: %+v", r)
	}
	for _, tr := range r.Results {
		if tr.Sim == nil || tr.Sim.Trials != 20 {
			t.Errorf("%s: missing or short sim results: %+v", tr.Technique, tr.Sim)
		}
		if tr.Predicted <= 0 || tr.Predicted > 1 {
			t.Errorf("%s: predicted efficiency %v out of range", tr.Technique, tr.Predicted)
		}
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != raw {
		t.Error("-out file differs from -json stdout")
	}
}

// TestStreamFlagDropsPerTrialSlice: -stream runs the campaign through
// the streaming sink — summaries and sketches, no Efficiencies slice.
func TestStreamFlagDropsPerTrialSlice(t *testing.T) {
	r, _ := jsonRun(t, "-system", "D4", "-techniques", "daly", "-trials", "20", "-stream")
	sim := r.Results[0].Sim
	if sim == nil {
		t.Fatal("no sim results")
	}
	if sim.Efficiencies != nil {
		t.Error("-stream still carries per-trial Efficiencies")
	}
	if sim.EfficiencySketch == nil || sim.EfficiencySketch.N() != 20 {
		t.Errorf("-stream sketch missing or short: %+v", sim.EfficiencySketch)
	}
}

// TestCheckpointResumeCLI: a checkpointed run leaves a resumable file
// per technique, and -resume reproduces the plain run byte for byte in
// the JSON output.
func TestCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	_, plain := jsonRun(t, "-system", "D4", "-techniques", "daly", "-trials", "24")
	_, first := jsonRun(t, "-system", "D4", "-techniques", "daly", "-trials", "24",
		"-checkpoint", dir, "-checkpoint-interval", "8")
	if plain != first {
		t.Error("checkpointed run differs from plain run")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one checkpoint, got %v (%v)", files, err)
	}
	_, resumed := jsonRun(t, "-system", "D4", "-techniques", "daly", "-trials", "24",
		"-checkpoint", dir, "-resume")
	if plain != resumed {
		t.Error("resumed run differs from plain run")
	}
}

// TestShardMergeCLI: N independent shard invocations followed by a
// merge invocation reproduce the single-process JSON byte for byte.
func TestShardMergeCLI(t *testing.T) {
	dir := t.TempDir()
	_, plain := jsonRun(t, "-system", "D4", "-techniques", "daly", "-trials", "24")
	for k := 0; k < 3; k++ {
		var out bytes.Buffer
		err := run([]string{"-system", "D4", "-techniques", "daly", "-trials", "24",
			"-shard", fmt.Sprintf("%d/3", k), "-shard-dir", dir}, &out)
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		if !strings.Contains(out.String(), fmt.Sprintf("shard %d/3", k)) {
			t.Errorf("shard %d: table does not report the shard range:\n%s", k, out.String())
		}
	}
	_, merged := jsonRun(t, "-system", "D4", "-techniques", "daly", "-trials", "24",
		"-merge-shards", "3", "-shard-dir", dir)
	if plain != merged {
		t.Error("merged shards differ from the single-process run")
	}
}

// TestNewFlagValidation: the flag combinations the redesign rejects.
func TestNewFlagValidation(t *testing.T) {
	var out bytes.Buffer
	ck := t.TempDir()
	for _, args := range [][]string{
		{"-system", "D4", "-resume"},                                                              // -resume without -checkpoint
		{"-system", "D4", "-checkpoint", "x"},                                                     // -checkpoint without -trials
		{"-system", "D4", "-trials", "8", "-shard", "0/2"},                                        // -shard without -shard-dir
		{"-system", "D4", "-trials", "8", "-shard", "2/2", "-shard-dir", "x"},                     // k out of range
		{"-system", "D4", "-trials", "8", "-shard", "nope", "-shard-dir", "x"},                    // malformed spec
		{"-system", "D4", "-trials", "8", "-shard", "0/2", "-shard-dir", "x", "-check"},           // shard + check
		{"-system", "D4", "-trials", "8", "-shard", "0/2", "-shard-dir", "x", "-checkpoint", "y"}, // shard + checkpoint
		{"-system", "D4", "-trials", "16", "-checkpoint", ck, "-checkpoint-interval", "-3"},       // negative interval
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
