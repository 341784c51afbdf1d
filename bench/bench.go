// Package bench is the repository's benchmark, mlbench. It runs the
// system from the outside — through the public functions of each layer
// and the mlckptd HTTP API — on four named workloads, checks every
// output, and reports end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md in this directory explains each one.
//
// Every rep of a workload runs in a process of its own — a re-exec'd
// child for the in-process workloads, a fresh mlckptd for daemon-mix —
// so set-up time, CPU time and peak RSS belong to that rep alone.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The workload names, as BENCHMARK.json lists them.
const (
	Fig5Optimize  = "fig5-optimize"
	CampaignHeavy = "campaign-heavy"
	CampaignLight = "campaign-light"
	DaemonMix     = "daemon-mix"
)

// Workloads lists every workload in run order.
var Workloads = []string{Fig5Optimize, CampaignHeavy, CampaignLight, DaemonMix}

// workers is the parallelism of every campaign, sweep and daemon job:
// the benchmark machine has two cores, and more workers than cores
// would measure the scheduler.
const workers = 2

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// SpecWorkload is one BENCHMARK.json workload entry.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec is one BENCHMARK.json metric entry. Bound, set only on
// end-to-end metrics, is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Metric is one reported value with its unit and the number of samples
// behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Machine identifies where a result was measured. Results from
// different CPU models are not comparable.
type Machine struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

// Stamp describes this machine and the commit checked out in the
// working directory.
func Stamp() Machine {
	m := Machine{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if c, ok := headCommit(".git"); ok {
		m.Commit = c
	}
	return m
}

// headCommit resolves HEAD from a git directory without running git.
func headCommit(gitDir string) (string, bool) {
	b, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "", false
	}
	head := strings.TrimSpace(string(b))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		return head, true
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b)), true
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash, true
		}
	}
	return "", false
}

// Config is one workload run's settings.
type Config struct {
	Seed uint64
	// Seconds is the measuring time: reps repeat until the next one would
	// overrun it (at least three reps, or two of each kind when traced).
	Seconds float64
	// Trace alternates untraced and traced reps and reports per-layer
	// metrics instead of end-to-end ones.
	Trace bool
	// Tiny shrinks every workload to smoke-test size; no pins apply.
	Tiny bool
	// Exe is the program whose "child" subcommand runs one rep of an
	// in-process workload: the mlbench binary, or a test binary whose
	// TestMain dispatches to ChildMain.
	Exe string
	// Mlckptd is the daemon binary daemon-mix starts.
	Mlckptd string
}

// Result is one workload run.
type Result struct {
	Schema    string  `json:"schema"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Machine   Machine `json:"machine"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	failures
	// Metrics are the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Extras are workload-specific details: throughput, per-phase
	// latencies, and in traced runs the attribution measured by hooks.
	Extras map[string]Metric `json:"extras,omitempty"`
	// Digests and Values identify the outputs; runs of the same seed on
	// two commits must agree on them.
	Digests map[string]string  `json:"digests,omitempty"`
	Values  map[string]float64 `json:"values,omitempty"`
	// Reps lists every rep as measured, in the order run.
	Reps []RepTiming `json:"reps"`
}

// RepTiming is one rep's raw measurements, with the calibration
// kernel's time around the rep.
type RepTiming struct {
	Traced     bool    `json:"traced,omitempty"`
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	CalS       float64 `json:"cal_s"`
}

// ResultSchema versions Result files.
const ResultSchema = "mlbench-result/v1"

// failures counts failed operations and describes the first failed
// checks.
type failures struct {
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
}

// maxErrors bounds Errors; the failure count carries the rest.
const maxErrors = 8

func (f *failures) fail(ops int, format string, args ...any) {
	f.Failed += ops
	if len(f.Errors) < maxErrors {
		f.Errors = append(f.Errors, fmt.Sprintf(format, args...))
	}
}

// RepReport is what one rep reports about itself. Only the work under
// test is inside WallS; preparing inputs and checking outputs are not.
type RepReport struct {
	WallS float64 `json:"wall_s"`
	// Ops counts the rep's operations (cells, trials or requests); the
	// failures are those whose output check failed.
	Ops int `json:"ops"`
	failures
	// Digests and Values identify the rep's outputs. Every rep of a run
	// must report the same ones.
	Digests map[string]string  `json:"digests,omitempty"`
	Values  map[string]float64 `json:"values,omitempty"`
	// PeakRSSMiB is the peak resident set of the process that did the
	// work, read just before it ended.
	PeakRSSMiB float64 `json:"peak_rss_mib,omitempty"`
	// Extras are per-rep details; a run reports their median.
	Extras map[string]Metric `json:"extras,omitempty"`
	// Samples are latency samples in milliseconds, pooled across reps.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// repSample is one rep as its parent measured it.
type repSample struct {
	traced bool
	// setup is exec to ready; cpu is user+system time and rssMiB the
	// peak resident set of the process that did the work; cal is the
	// calibration kernel's time around the rep.
	setup, cpu, rssMiB, cal float64
	report                  RepReport
}

// Run runs one workload for cfg.Seconds and summarizes its reps.
func Run(ctx context.Context, name string, cfg Config) (*Result, error) {
	var rep func(ctx context.Context, traced bool) (repSample, error)
	switch {
	case name == DaemonMix:
		d, err := newDaemonMix(cfg)
		if err != nil {
			return nil, err
		}
		rep = d.rep
	case childWorkloads[name] != nil:
		tmp, err := os.MkdirTemp("", "mlbench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		rep = func(ctx context.Context, traced bool) (repSample, error) {
			return runChild(ctx, cfg, name, traced, tmp)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(Workloads, ", "))
	}

	minReps := 3
	if cfg.Trace {
		minReps = 4
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	var samples []repSample
	for {
		traced := cfg.Trace && len(samples)%2 == 1
		t0 := time.Now()
		s, err := rep(ctx, traced)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", name, len(samples)+1, err)
		}
		samples = append(samples, s)
		if len(samples) >= minReps && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	return summarize(name, cfg, samples), nil
}

// summarize folds a run's reps into a Result: it checks that every rep
// produced the same outputs (and, at the pinned seed, the pinned ones),
// then reduces the reps' measurements to one value per metric.
func summarize(name string, cfg Config, samples []repSample) *Result {
	res := &Result{
		Schema: ResultSchema, Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Trace: cfg.Trace, Machine: Stamp(),
		Metrics: map[string]Metric{}, Extras: map[string]Metric{},
	}
	first := samples[0].report
	res.Digests, res.Values = first.Digests, first.Values
	var setup, wall, cpu, rss, tracedWall, rawSetup, rawWall, rawCPU, speed []float64
	extras := map[string][]float64{}
	units := map[string]string{}
	pooled := map[string][]float64{}
	for i, s := range samples {
		r := s.report
		res.Reps = append(res.Reps, RepTiming{Traced: s.traced, SetupS: s.setup, WallS: r.WallS, CPUS: s.cpu, PeakRSSMiB: s.rssMiB, CalS: s.cal})
		res.Attempted += r.Ops
		if !sameOutputs(first, r) {
			res.fail(r.Ops, "rep %d outputs differ from rep 1", i+1)
		} else if r.Failed > 0 {
			res.fail(r.Failed, "rep %d: %s", i+1, strings.Join(r.Errors, "; "))
		}
		scale := calRefS / s.cal
		if s.traced {
			tracedWall = append(tracedWall, r.WallS*scale)
		} else {
			setup = append(setup, s.setup*scale)
			wall = append(wall, r.WallS*scale)
			cpu = append(cpu, s.cpu*scale)
			rss = append(rss, s.rssMiB)
			rawSetup = append(rawSetup, s.setup)
			rawWall = append(rawWall, r.WallS)
			rawCPU = append(rawCPU, s.cpu)
			speed = append(speed, scale)
		}
		if s.traced != cfg.Trace {
			continue
		}
		for k, m := range r.Extras {
			extras[k] = append(extras[k], m.Value)
			units[k] = m.Unit
		}
		for k, v := range r.Samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	if cfg.Seed == pins.Seed && !cfg.Tiny {
		if msgs := checkPins(name, res.Digests, res.Values); len(msgs) > 0 {
			// A pinned output is wrong, so no operation of the run can be
			// trusted.
			res.Failed = res.Attempted
			res.Errors = append(res.Errors, msgs...)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0

	// Times are scaled to the reference machine speed by the calibration
	// kernel timed around each rep: other tenants of a shared machine slow
	// it by up to 2x in bursts and drifts, and the kernel slows with it.
	// The raw medians are kept as extras.
	med := func(xs []float64, unit string) Metric { return Metric{Value: median(xs), Unit: unit, N: len(xs)} }
	if cfg.Trace {
		res.Metrics["obs.trace_overhead_frac"] = Metric{
			Value: median(tracedWall)/median(wall) - 1, Unit: "frac", N: len(tracedWall) + len(wall)}
	} else {
		res.Metrics["setup_s"] = med(setup, "s")
		res.Metrics["wall_s"] = med(wall, "s")
		res.Metrics["cpu_s"] = med(cpu, "s")
		res.Metrics["peak_rss_mib"] = med(rss, "MiB")
	}
	res.Extras["raw_setup_s"] = med(rawSetup, "s")
	res.Extras["raw_wall_s"] = med(rawWall, "s")
	res.Extras["raw_cpu_s"] = med(rawCPU, "s")
	res.Extras["machine_speed"] = med(speed, "ratio")
	for k, xs := range extras {
		res.Extras[k] = med(xs, units[k])
	}
	for k, m := range latencyMetrics(pooled) {
		res.Extras[k] = m
	}
	return res
}

// sameOutputs reports whether two reps produced the same outputs.
func sameOutputs(a, b RepReport) bool {
	if len(a.Digests) != len(b.Digests) || len(a.Values) != len(b.Values) {
		return false
	}
	for k, v := range a.Digests {
		if b.Digests[k] != v {
			return false
		}
	}
	for k, v := range a.Values {
		if w, ok := b.Values[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// WriteLines prints one line per metric, then per extra:
// "workload metric value unit n=samples".
func (r *Result) WriteLines(w io.Writer) {
	for _, group := range []map[string]Metric{r.Metrics, r.Extras} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group[k]
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, k, m.Value, m.Unit, m.N)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s FAILED: %s\n", r.Workload, e)
	}
}

// SummaryLine renders the one-line JSON summary: correctness counts and
// exactly the metrics named in specs, each with its value and unit. A
// metric the run did not produce, or produced in another unit, is an
// error in the benchmark itself.
func (r *Result) SummaryLine(specs []MetricSpec) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: run produced no metric %q", r.Workload, s.Name)
		}
		if m.Unit != s.Unit {
			return nil, fmt.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", r.Workload, s.Name, m.Unit, s.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %q is %v", r.Workload, s.Name, m.Value)
		}
		metrics[s.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// WriteFile writes the result as indented JSON to path.
func (r *Result) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResult reads a file written by WriteFile.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != ResultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, ResultSchema)
	}
	return &r, nil
}
