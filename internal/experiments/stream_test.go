package experiments

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/system"
)

// TestStreamOptionMatchesExact: Options.Stream produces the same cell
// statistics as the exact path (moments to float tolerance, counts
// exactly), with sketches instead of the per-trial slice.
func TestStreamOptionMatchesExact(t *testing.T) {
	opt := testOpts()
	exact := eval(t, "D4", "dauwe", opt)
	opt.Stream = true
	stream := eval(t, "D4", "dauwe", opt)
	if stream.Sim.Efficiencies != nil {
		t.Error("stream cell carries per-trial Efficiencies")
	}
	if stream.Sim.EfficiencySketch == nil {
		t.Fatal("stream cell carries no efficiency sketch")
	}
	if stream.Sim.Trials != exact.Sim.Trials || stream.Sim.Completed != exact.Sim.Completed {
		t.Errorf("counts differ: %+v vs %+v", stream.Sim, exact.Sim)
	}
	if d := math.Abs(stream.Sim.Efficiency.Mean - exact.Sim.Efficiency.Mean); d > 1e-12 {
		t.Errorf("means differ by %g", d)
	}
	if stream.Sim.Efficiency.Min != exact.Sim.Efficiency.Min ||
		stream.Sim.Efficiency.Max != exact.Sim.Efficiency.Max {
		t.Error("min/max differ between stream and exact cells")
	}
}

// TestCheckpointDirAndResume: a cell campaign checkpointed to disk
// resumes to an identical result, and the checkpoint files land under
// the configured directory.
func TestCheckpointDirAndResume(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts()
	want := eval(t, "D4", "dauwe", opt)

	opt.CheckpointDir = dir
	first := eval(t, "D4", "dauwe", opt)
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one checkpoint file, got %v (%v)", files, err)
	}
	if !reflect.DeepEqual(want.Sim, first.Sim) {
		t.Error("checkpointed cell differs from plain cell")
	}

	// Truncate the checkpoint back to a mid-run state by re-running with
	// resume against the completed file — must reproduce the result
	// without re-simulating (the completed checkpoint short-circuits).
	opt.Resume = true
	resumed := eval(t, "D4", "dauwe", opt)
	if !reflect.DeepEqual(want.Sim, resumed.Sim) {
		t.Error("resumed cell differs from plain cell")
	}

	// A corrupt checkpoint must surface as an error, not silent rerun.
	if err := os.WriteFile(files[0], []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	sysD4, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(sysD4, "dauwe", opt.trials(200), rng.Campaign(opt.seed(), "test"), opt); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

// TestSanitizeCell: labels map to safe filenames.
func TestSanitizeCell(t *testing.T) {
	if got := sanitizeCell("mtbf=3/pfs=40-moody"); got != "mtbf_3_pfs_40-moody" {
		t.Errorf("sanitizeCell = %q", got)
	}
}
