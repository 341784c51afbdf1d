package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repParams are the inputs of one in-process rep.
type repParams struct {
	seed   uint64
	tiny   bool
	traced bool
	// tmp is a scratch directory the rep may write (checkpoint files).
	tmp string
}

// prepareFunc builds one rep's inputs and returns the function that runs
// the rep, timing only the work under test, and checks its outputs.
type prepareFunc func(p repParams) (func() (RepReport, error), error)

// childWorkloads are the workloads whose reps run in a child mlbench.
var childWorkloads = map[string]prepareFunc{
	Fig5Optimize:  prepareFig5,
	CampaignHeavy: prepareHeavy,
	CampaignLight: prepareLight,
}

// ChildMain runs one rep of an in-process workload: it prepares the
// rep, prints "ready", runs it and prints its RepReport as one JSON
// line. It returns the process exit code. The parent times set-up as
// exec to the "ready" line and reads CPU time and peak RSS from the
// exited process.
func ChildMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mlbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1, "workload seed")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	traced := fs.Bool("traced", false, "attach the benchmark's hooks")
	tmp := fs.String("tmp", os.TempDir(), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prepare, ok := childWorkloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "mlbench child: unknown workload %q\n", *name)
		return 2
	}
	rep, err := prepare(repParams{seed: *seed, tiny: *tiny, traced: *traced, tmp: *tmp})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlbench child: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	r, err := rep()
	if err == nil {
		r.PeakRSSMiB, err = peakRSSMiB("self")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlbench child: %s: %v\n", *name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "mlbench child: %v\n", err)
		return 1
	}
	return 0
}

// runChild runs one rep of an in-process workload in a child process.
func runChild(ctx context.Context, cfg Config, name string, traced bool, tmp string) (repSample, error) {
	args := []string{"child", "-workload", name, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-traced=" + strconv.FormatBool(traced), "-tiny=" + strconv.FormatBool(cfg.Tiny), "-tmp", tmp}
	cmd := exec.CommandContext(ctx, cfg.Exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.StdoutPipe()
	if err != nil {
		return repSample{}, err
	}
	calBefore := calibrate(cfg.Tiny)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return repSample{}, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var (
		setup  time.Duration
		report RepReport
		perr   error
	)
	switch {
	case !sc.Scan() || sc.Text() != "ready":
		perr = errors.New("child did not report ready")
	default:
		setup = time.Since(start)
		if !sc.Scan() {
			perr = errors.New("child reported no result")
		} else {
			perr = json.Unmarshal(sc.Bytes(), &report)
		}
	}
	// Drain whatever is left so Wait sees the pipe closed.
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return repSample{}, fmt.Errorf("child: %w", err)
	}
	if perr != nil {
		return repSample{}, perr
	}
	s := repSample{traced: traced, setup: setup.Seconds(), cpu: cpuSeconds(cmd.ProcessState), rssMiB: report.PeakRSSMiB, report: report}
	s.cal = (calBefore + calibrate(cfg.Tiny)) / 2
	return s, nil
}

// childAttr kills a child when its parent dies, so an interrupted run
// leaves no process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cpuSeconds is the user plus system CPU time of an exited process.
func cpuSeconds(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// peakRSSMiB reads the peak resident set (VmHWM) of a running process
// ("self" or a process ID) from /proc. The rusage of an exited child is
// no substitute: Linux carries the parent's peak over into it at exec,
// and the parent holds the calibration kernel's 32 MiB.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}
