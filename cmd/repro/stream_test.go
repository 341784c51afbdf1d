package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONTargets: -json emits a decodable JSON document per target
// instead of the text tables.
func TestJSONTargets(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quiet", "-json", "-fast", "-trials", "10", "fig3"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Systems    []string
		Techniques []string
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("fig3 -json not decodable: %v\n%s", err, out.String())
	}
	if len(doc.Systems) == 0 || len(doc.Techniques) == 0 {
		t.Errorf("fig3 -json missing systems/techniques: %+v", doc)
	}

	out.Reset()
	if err := run([]string{"-quiet", "-json", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) || strings.Contains(out.String(), "─") {
		t.Errorf("table1 -json is not a clean JSON document:\n%s", out.String())
	}
}

// TestOutFlagRemoved: the deprecated -out alias is gone; -outdir is the
// artifact directory flag.
func TestOutFlagRemoved(t *testing.T) {
	if err := run([]string{"-quiet", "-out", t.TempDir(), "table1"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-out accepted; the alias should be gone")
	}
	dir := t.TempDir()
	if err := run([]string{"-quiet", "-outdir", dir, "table1"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.txt", "table1.svg"} {
		if m, _ := filepath.Glob(filepath.Join(dir, name)); len(m) != 1 {
			t.Errorf("%s missing under %s", name, dir)
		}
	}
}

// TestStreamCheckpointResumeFlags: -stream and -checkpoint/-resume
// thread through experiments.Options; the resumed run reproduces the
// checkpointed run byte for byte on the JSON path.
func TestStreamCheckpointResumeFlags(t *testing.T) {
	dir := t.TempDir()
	args := func(extra ...string) []string {
		return append(append([]string{"-quiet", "-json", "-fast", "-trials", "10", "-stream"}, extra...), "sensitivity")
	}
	var first, resumed bytes.Buffer
	if err := run(args("-checkpoint", dir), &first); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(m) == 0 {
		t.Fatal("no checkpoint files written")
	}
	if err := run(args("-checkpoint", dir, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if first.String() != resumed.String() {
		t.Error("resumed run differs from checkpointed run")
	}
	if strings.Contains(first.String(), "\"Efficiencies\"") {
		t.Error("-stream output still carries per-trial Efficiencies")
	}
	if err := run(args("-resume"), &bytes.Buffer{}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
}
