//go:build linux

package main

import (
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
)

// rssScenario is a deliberately event-light campaign (long optimal
// interval, rare failures) so a million trials finish in seconds and
// peak memory is dominated by the result path under test, not the
// engine.
var rssScenario = []string{
	"-mtbf", "200", "-tb", "600", "-probs", "1", "-times", "0.5",
	"-techniques", "daly", "-stream",
}

// TestStreamRSSChild is the helper process for TestStreamConstantMemory:
// it runs the streaming campaign in-process so the parent can read the
// child's peak RSS from its rusage.
func TestStreamRSSChild(t *testing.T) {
	trials := os.Getenv("MLCKPT_RSS_TRIALS")
	if trials == "" {
		t.Skip("helper process for TestStreamConstantMemory")
	}
	if err := run(append(rssScenario, "-trials", trials), io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestStreamConstantMemory is the O(1)-memory acceptance gate for the
// streaming sink: peak RSS at 10^6 trials must stay within a fixed
// budget of peak RSS at 10^4 trials. The exact path grows by hundreds
// of MiB over the same span (per-trial slices); the stream path keeps
// fixed-size sketches and counters per worker. Run via
// `./check.sh stream` (it sets MLCKPT_RSS_GUARD=1); the bench module's
// campaign-light peak_rss_mib tracks the stream path's memory.
func TestStreamConstantMemory(t *testing.T) {
	if os.Getenv("MLCKPT_RSS_GUARD") == "" {
		t.Skip("set MLCKPT_RSS_GUARD=1 (./check.sh stream) to run the max-RSS guard")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	maxRSS := func(trials int) int64 {
		cmd := exec.Command(exe, "-test.run", "^TestStreamRSSChild$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"MLCKPT_RSS_TRIALS="+strconv.Itoa(trials),
			"MLCKPT_RSS_GUARD=") // never recurse into the guard
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child (%d trials): %v\n%s", trials, err, out)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			t.Fatal("no rusage for child process")
		}
		return ru.Maxrss // KiB on Linux
	}
	small := maxRSS(10_000)
	large := maxRSS(1_000_000)
	t.Logf("peak RSS: %d KiB at 1e4 trials, %d KiB at 1e6 trials (delta %+d KiB)",
		small, large, large-small)
	// 100x the trials may cost at most 32 MiB of extra peak RSS — noise
	// headroom for the runtime, far below the exact path's O(trials)
	// growth (~100 B/trial ≈ 100 MiB at 1e6).
	if large > small+32*1024 {
		t.Errorf("streaming sink is not constant-memory: %d KiB -> %d KiB", small, large)
	}
}
