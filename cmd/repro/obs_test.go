package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTraceSummaryAndStreamStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizers and simulations")
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	err := run([]string{"-quiet", "-fast", "-trials", "4", "-wall", "25",
		"-trace-summary", "-metrics", path, "sensitivity"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Sensitivity drives campaigns directly (no per-cell optimize), so
	// the tree is campaign → {setup, run → trial, merge}.
	for _, want := range []string{"campaign", "setup", "run", "trial", "merge"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace summary missing %q:\n%s", want, s)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) == 0 {
		t.Error("snapshot has no spans")
	}
	var effCount uint64
	for _, st := range snap.Stats {
		if st.Name == "trial_efficiency" {
			effCount = uint64(st.Count)
		}
	}
	// Every simulated trial streams through the live estimator.
	if trials := snap.Counter("sim_trials_total"); effCount != trials {
		t.Errorf("trial_efficiency count = %d, want %d (every trial streams)", effCount, trials)
	}
}

func TestListenFlagSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizers and simulations")
	}
	var out bytes.Buffer
	err := run([]string{"-quiet", "-fast", "-trials", "4", "-wall", "25",
		"-listen", "127.0.0.1:0", "table1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

// blockingWriter holds every write until release is closed, then
// discards it.
type blockingWriter struct{ release chan struct{} }

func (w blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// TestListenReady scrapes /readyz of a running repro -listen. The run
// is held at its first stdout write, so it is still serving when the
// scrape arrives.
func TestListenReady(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	stdout := blockingWriter{release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-quiet", "-listen", "127.0.0.1:0", "table1"}, stdout)
		w.Close()
	}()
	defer func() {
		close(stdout.release)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	// The first stderr line names the address.
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line on stderr: %v", err)
	}
	go io.Copy(io.Discard, br)
	_, rest, ok := strings.Cut(line, "http://")
	addr, _, ok2 := strings.Cut(rest, "/")
	if !ok || !ok2 {
		t.Fatalf("listen line %q has no address", line)
	}
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz of a running repro = %d %q, want 200", resp.StatusCode, body)
	}
}
