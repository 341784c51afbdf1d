package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read run()'s stdout while the server
// goroutine is still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "not defined"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"zero slots", []string{"-slots", "0"}, "-slots"},
		{"zero queue", []string{"-queue", "0"}, "-queue"},
		{"zero cache", []string{"-cache-size", "0"}, "-cache-size"},
		{"bad listen", []string{"-listen", "999.999.999.999:0"}, "listen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) accepted bad flags", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunServeAndShutdown boots the daemon on an ephemeral port,
// serves real requests through it, then delivers SIGTERM and requires
// a clean drain: the lifecycle a process supervisor exercises.
func TestRunServeAndShutdown(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "10s"}, &out)
	}()

	// Wait for the startup line and extract the bound address.
	addrRE := regexp.MustCompile(`serving on (http://[^\s]+)`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line within 10s; output %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The telemetry surface and the API both answer on the one listener.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}

	body := strings.NewReader(`{"system":"D4","technique":"daly"}`)
	resp, err = http.Post(base+"/v1/plan", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	planBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/plan = %d: %s", resp.StatusCode, planBody)
	}
	if !strings.Contains(string(planBody), `"plan"`) {
		t.Fatalf("plan response missing plan: %s", planBody)
	}

	// Supervisor sends SIGTERM; the daemon must drain and exit nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
	got := out.String()
	for _, want := range []string{"draining", "stopped"} {
		if !strings.Contains(got, want) {
			t.Errorf("output %q missing %q", got, want)
		}
	}
}

// sigtermOnServe is a stdout that sends SIGTERM to the process from
// inside the Write of the serving line: the earliest moment a
// supervisor reading the output can react.
type sigtermOnServe struct {
	syncBuffer
	once sync.Once
}

func (w *sigtermOnServe) Write(p []byte) (int, error) {
	n, err := w.syncBuffer.Write(p)
	if bytes.Contains(p, []byte("serving on")) {
		w.once.Do(func() {
			if kerr := syscall.Kill(os.Getpid(), syscall.SIGTERM); kerr != nil {
				err = kerr
			}
		})
	}
	return n, err
}

// TestRunSIGTERMAtServingLine delivers SIGTERM while run is still
// printing its serving line. The handler must already be installed, so
// the daemon drains and returns nil; without it the signal's default
// action kills the test binary.
func TestRunSIGTERMAtServingLine(t *testing.T) {
	out := &sigtermOnServe{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "10s"}, out)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
	got := out.String()
	for _, want := range []string{"serving on", "draining", "stopped"} {
		if !strings.Contains(got, want) {
			t.Errorf("output %q missing %q", got, want)
		}
	}
}
