// Command mlckpt optimizes multilevel checkpoint intervals for a system
// and reports every technique's chosen plan, its own prediction, and
// (optionally) the simulated ground truth.
//
// Usage:
//
//	mlckpt [flags]
//
// The system is either a Table I system (-system M|B|D1..D9) or a custom
// one assembled from -mtbf, -tb, -levels, -probs and -times. Examples:
//
//	mlckpt -system D4
//	mlckpt -system B -scale-mtbf 15 -scale-pfs 20 -tb 30
//	mlckpt -mtbf 60 -tb 1440 -probs 0.8,0.2 -times 0.5,5
//	mlckpt -system D4 -crn -ci-target 0.002   (paired comparison, sequential stopping)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultlog"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/obs/sidecar"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"

	_ "repro/internal/model/benoit"
	_ "repro/internal/model/daly"
	_ "repro/internal/model/dauwe"
	_ "repro/internal/model/di"
	_ "repro/internal/model/moody"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mlckpt:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mlckpt", flag.ContinueOnError)
	sysName := fs.String("system", "", "Table I system name (M, B, D1..D9)")
	config := fs.String("config", "", "JSON system description file (see system.WriteJSON)")
	flog := fs.String("faultlog", "", "CSV failure log (time_minutes,severity); refits MTBF and severity mix onto the chosen system")
	mtbf := fs.Float64("mtbf", 0, "custom system MTBF in minutes")
	tb := fs.Float64("tb", 0, "application baseline time in minutes (overrides the system's)")
	probs := fs.String("probs", "", "custom severity probabilities, comma-separated")
	times := fs.String("times", "", "custom per-level checkpoint(=restart) times in minutes, comma-separated")
	scaleMTBF := fs.Float64("scale-mtbf", 0, "override MTBF of the chosen system")
	scalePFS := fs.Float64("scale-pfs", 0, "override level-L checkpoint/restart time")
	techs := fs.String("techniques", "dauwe,di,moody,benoit,daly", "comma-separated techniques")
	list := fs.Bool("list", false, "list registered techniques with their citations and exit")
	trials := fs.Int("trials", 0, "also simulate each plan over this many trials")
	crn := fs.Bool("crn", false, "simulate all techniques under common random numbers and report paired comparisons (default 400 trials)")
	ciTarget := fs.Float64("ci-target", 0, "with -crn, stop once every paired 95% CI half-width is below this (0 = fixed trial count)")
	check := fs.Bool("check", false, "run every simulated trial under the protocol-invariant checker (fails on any violation; results are bit-identical to unchecked runs)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	metricsPath := fs.String("metrics", "", "write a telemetry snapshot (JSON) of the optimizer sweeps and simulations to this file")
	progress := fs.Bool("progress", false, "report trials/sec and ETA on stderr")
	listen := fs.String("listen", "", "serve live telemetry over HTTP on this address (/metrics, /snapshot, /spans, /flight, /debug/pprof/)")
	traceSummary := fs.Bool("trace-summary", false, "print the hierarchical span time breakdown after the run")
	flightPath := fs.String("flight", "", "write the trial flight-recorder dump (recent + anomalous event streams) to this file; read it back with simtrace -flight")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	jsonOut := fs.Bool("json", false, "write machine-readable JSON results to stdout instead of the human-readable rendering")
	outPath := fs.String("out", "", "also write the machine-readable JSON results to this path")
	streamSim := fs.Bool("stream", false, "aggregate simulations in constant memory (sketch-backed summaries instead of per-trial slices)")
	ckptDir := fs.String("checkpoint", "", "checkpoint each technique's campaign into this directory (resume with -resume)")
	ckptInterval := fs.Int("checkpoint-interval", 0, "trials between checkpoint writes (0 = trials/8, at least 1)")
	resume := fs.Bool("resume", false, "with -checkpoint, resume each campaign from its checkpoint file when present")
	shardSpec := fs.String("shard", "", "run only shard k/N of each campaign (e.g. 1/4) and write a mergeable shard file under -shard-dir")
	shardDir := fs.String("shard-dir", "", "directory for shard files (required by -shard and -merge-shards)")
	mergeShards := fs.Int("merge-shards", 0, "merge N previously written shard files per technique from -shard-dir and report the combined results")
	watchDir := fs.String("watch", "", "monitor a directory of progress sidecars: render fleet progress (per-shard bars, throughput, ETA, stragglers) until every shard reaches a terminal state; with -json, print one machine-readable fleet snapshot and exit")
	watchInterval := fs.Duration("watch-interval", 2*time.Second, "refresh period for -watch")
	logJSON := fs.Bool("log-json", false, "emit structured JSON event logs (campaign start/checkpoint/resume/shard-merge/error) on stderr, correlated by run ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watchDir != "" {
		return runWatch(*watchDir, *watchInterval, *jsonOut, stdout)
	}
	shardK, shardN, err := parseShard(*shardSpec)
	if err != nil {
		return err
	}
	if shardN > 0 || *mergeShards > 0 {
		if *shardDir == "" {
			return fmt.Errorf("-shard and -merge-shards need -shard-dir")
		}
		if *trials <= 0 {
			return fmt.Errorf("-shard and -merge-shards need -trials")
		}
		if *crn || *check || *flightPath != "" {
			return fmt.Errorf("-shard/-merge-shards are incompatible with -crn, -check and -flight")
		}
		if *ckptDir != "" {
			return fmt.Errorf("-shard runs do not take -checkpoint (the shard file is the checkpoint)")
		}
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *ckptDir != "" && *trials <= 0 {
		return fmt.Errorf("-checkpoint needs -trials")
	}
	if *ckptInterval < 0 {
		return fmt.Errorf("-checkpoint-interval %d: want a positive trial count (0 = trials/8)", *ckptInterval)
	}
	// Zero turns sequential stopping off; NaN > 0 is false, so test != 0.
	if *ciTarget != 0 && (!(*ciTarget > 0) || math.IsInf(*ciTarget, 1)) {
		return fmt.Errorf("-ci-target %v: want a positive, finite CI half-width", *ciTarget)
	}
	if *ciTarget != 0 && !*crn {
		return fmt.Errorf("-ci-target needs -crn (sequential stopping is defined on paired CIs)")
	}
	if *crn && *streamSim {
		return fmt.Errorf("-stream is incompatible with -crn: paired statistics read every trial's result")
	}
	opt := experiments.Options{
		Trials: *trials,
		Seed:   *seed,
		// Every path, CRN arms included, caps trials at the engine's
		// default 400·T_B, as /v1/simulate does.
		MaxWallFactor:      sim.DefaultMaxWallFactor,
		CITarget:           *ciTarget,
		Stream:             *streamSim,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
		Resume:             *resume,
		Check:              *check,
		Shard:              shardK,
		Shards:             shardN,
	}
	if *mergeShards > 0 {
		opt.Shards, opt.MergeShards = *mergeShards, true
	}
	if opt.Shards > 0 {
		opt.CheckpointDir = *shardDir // the shard file is the checkpoint
	}
	if opt.CheckpointDir != "" && !opt.MergeShards {
		if err := os.MkdirAll(opt.CheckpointDir, 0o755); err != nil {
			return err
		}
	}
	if *list {
		return listTechniques(stdout)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	sys, err := buildSystem(*sysName, *config, *mtbf, *tb, *probs, *times)
	if err != nil {
		return err
	}
	if *scaleMTBF > 0 {
		sys = sys.WithMTBF(*scaleMTBF)
	}
	if *scalePFS > 0 {
		sys = sys.WithTopCost(*scalePFS)
	}
	if *tb > 0 {
		sys = sys.WithBaseline(*tb)
	}
	if *flog != "" {
		refit, diag, err := refitFromLog(sys, *flog)
		if err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, diag)
		}
		sys = refit
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, sys)
	}

	techNames := []string{}
	for _, name := range strings.Split(*techs, ",") {
		if name = strings.TrimSpace(name); name != "" {
			techNames = append(techNames, name)
		}
	}
	if *metricsPath != "" || *listen != "" {
		opt.Metrics = obs.NewSimMetrics()
	}
	// Spans are recorded whenever something can show them: the summary
	// table, the /spans endpoint, or the -metrics snapshot.
	if *traceSummary || *listen != "" || *metricsPath != "" {
		opt.Spans = obs.NewTracer()
	}
	if *flightPath != "" || *listen != "" {
		opt.Flight = &experiments.FlightLog{}
	}
	if *progress {
		// The budget is the trials this invocation simulates.
		perCell := *trials
		switch {
		case *crn && perCell == 0:
			perCell = 400 // CompareTechniques' default
		case opt.MergeShards:
			perCell = 0
		case shardN > 0:
			lo, hi := sim.ShardRange(*trials, 0, shardK, shardN)
			perCell = hi - lo
		}
		prog := obs.NewProgress(os.Stderr, "mlckpt", int64(len(techNames)*perCell))
		opt.TrialDone = prog.Tick
		defer prog.Finish()
	}
	// runID correlates this invocation's artifacts — event-log lines,
	// flight dumps and, under -log-json, sidecars — across the fleet;
	// every shard of a cell, run with the same flags, shares it.
	runID := sidecar.ConfigDigest("mlckpt", sys.Name, *techs,
		strconv.FormatUint(*seed, 10), strconv.Itoa(*trials))
	if *logJSON {
		opt.Events = obs.NewEventLog(os.Stderr, runID)
	}
	var live *obshttp.Live
	if *listen != "" {
		live = obshttp.NewLive()
		opt.TrialStats = live.Stats
		// Publish an empty dump so /flight serves from the start.
		if err := live.PublishFlight(func(w io.Writer) error {
			return trace.WriteFlight(w, trace.FlightDump{RunID: runID})
		}); err != nil {
			return err
		}
		// /shards serves the fleet view over the sidecars beside this
		// process's checkpoint or shard files.
		if dir := opt.CheckpointDir; dir != "" {
			live.SetShards(func() (any, error) {
				files, err := sidecar.Scan(dir)
				if err != nil {
					return nil, err
				}
				return sidecar.BuildFleet(files, time.Now(), 0), nil
			})
		}
		srv, err := obshttp.Serve(*listen, live.Options())
		if err != nil {
			return err
		}
		defer srv.Close()
		live.SetReady(true)
		fmt.Fprintf(os.Stderr, "mlckpt: telemetry on http://%s/metrics (also /snapshot, /spans, /shards, /healthz, /flight, /debug/pprof/)\n", srv.Addr())
	} else if opt.Metrics != nil {
		opt.TrialStats = obs.NewStreamSet()
	}
	// publish checkpoints the merged telemetry so the HTTP endpoints show
	// everything up to the cell that just finished.
	publish := func() error {
		if live == nil {
			return nil
		}
		if opt.Metrics != nil {
			live.PublishSnapshot(opt.Metrics.Snapshot())
		}
		live.PublishSpans(opt.Spans.Snapshot())
		return live.PublishFlight(func(w io.Writer) error {
			return trace.WriteFlight(w, opt.Flight.Dump(runID))
		})
	}
	// fail returns a campaign's error after dumping the flight streams:
	// the black box matters most on the crash path.
	fail := func(err error) error {
		if *flightPath != "" {
			dumpFlight(*flightPath, opt.Flight.Dump(runID))
		}
		return err
	}
	reportChecked := func(c experiments.Cell) {
		if c.Conformance != nil && !*jsonOut {
			fmt.Fprintf(stdout, "conformance[%s]: %d trials, %d events, all invariants held\n",
				c.Technique, c.Conformance.Trials, c.Conformance.Events)
		}
	}

	var doc any
	var render func(io.Writer) error
	if *crn {
		rep, err := experiments.CompareTechniques(sys, techNames, opt)
		if err != nil {
			return fail(err)
		}
		for _, c := range rep.Cells {
			reportChecked(c)
		}
		if err := publish(); err != nil {
			return err
		}
		doc, render = rep, func(w io.Writer) error { return report.VarianceReport(w, rep) }
	} else {
		tab := report.NewTable("technique", "levels", "plan", "predicted eff", "sim eff (mean±σ)")
		results := runResults{System: sys.Name, Trials: *trials, Seed: *seed}
		seeds := rng.Campaign(*seed, "mlckpt")
		for _, name := range techNames {
			info, err := model.Describe(name)
			if err != nil {
				return err
			}
			c, err := experiments.Evaluate(sys, name, *trials, seeds, opt)
			if err != nil {
				return fail(err)
			}
			reportChecked(c)
			tr := techResult{Technique: name, Plan: c.Plan.String(), Predicted: c.Predicted.Efficiency, ShardFile: c.ShardFile}
			simCol := ""
			switch {
			case *trials <= 0:
			case shardN > 0:
				lo, hi := sim.ShardRange(*trials, 0, shardK, shardN)
				simCol = fmt.Sprintf("shard %d/%d (trials %d..%d)", shardK, shardN, lo, hi-1)
			default:
				tr.Sim = &c.Sim
				simCol = fmt.Sprintf("%.3f±%.3f", c.Sim.Efficiency.Mean, c.Sim.Efficiency.Std)
			}
			results.Results = append(results.Results, tr)
			tab.AddRow(name, levelsLabel(info), tr.Plan, fmt.Sprintf("%.3f", tr.Predicted), simCol)
			if err := publish(); err != nil {
				return err
			}
		}
		doc, render = results, tab.Render
	}
	if err := emit(stdout, *jsonOut, *outPath, doc, render); err != nil {
		return err
	}
	if *flightPath != "" {
		d := opt.Flight.Dump(runID)
		if err := writeFlight(*flightPath, d); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "flight recorder: %s written to %s\n", d.Counts(), *flightPath)
		}
	}
	return obs.FinishRun(stdout, *traceSummary, *metricsPath, *memprofile, opt.Metrics, opt.Spans, opt.TrialStats)
}

// techResult is one row of the machine-readable output: the chosen
// plan, the technique's own prediction, and (when simulated) the full
// campaign result. encoding/json renders float64s with the shortest
// round-trip representation, so two runs with bitwise-identical
// results marshal to byte-identical JSON — check.sh's resume gate
// compares these outputs with cmp.
type techResult struct {
	Technique string              `json:"technique"`
	Plan      string              `json:"plan"`
	Predicted float64             `json:"predicted_efficiency"`
	Sim       *sim.CampaignResult `json:"sim,omitempty"`
	ShardFile string              `json:"shard_file,omitempty"`
}

// runResults is the top-level machine-readable document written by
// -json and -out (under -crn they write the experiments.VarianceReport
// instead).
type runResults struct {
	System  string       `json:"system"`
	Trials  int          `json:"trials"`
	Seed    uint64       `json:"seed"`
	Results []techResult `json:"results"`
}

// writeJSON writes v as the indented machine-readable document.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// emit writes a run's result: doc's JSON document on stdout with -json,
// the human-readable render otherwise, and the document to outPath
// (-out) when it is set.
func emit(stdout io.Writer, jsonOut bool, outPath string, doc any, render func(io.Writer) error) error {
	var err error
	if jsonOut {
		err = writeJSON(stdout, doc)
	} else {
		err = render(stdout)
	}
	if err != nil || outPath == "" {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := writeJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWatch is the fleet monitor (-watch): it scans a directory of
// progress sidecars, renders per-shard bars with aggregate throughput
// and ETA plus straggler/stall flags, and repeats every interval until
// every shard reaches a terminal state. With jsonOut it prints one
// machine-readable fleet snapshot and exits. A fleet with a failed
// shard makes the monitor itself exit nonzero.
func runWatch(dir string, interval time.Duration, jsonOut bool, stdout io.Writer) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	scan := func() (sidecar.Fleet, error) {
		files, err := sidecar.Scan(dir)
		if err != nil {
			return sidecar.Fleet{}, err
		}
		return sidecar.BuildFleet(files, time.Now(), 0), nil
	}
	failErr := func(fl sidecar.Fleet) error {
		if fl.Failed > 0 {
			return fmt.Errorf("%d shard(s) failed", fl.Failed)
		}
		return nil
	}
	if jsonOut {
		fl, err := scan()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fl); err != nil {
			return err
		}
		return failErr(fl)
	}
	// Redraw in place only on interactive terminals; pipes get appended
	// frames.
	ansi := false
	if f, ok := stdout.(*os.File); ok {
		if fi, err := f.Stat(); err == nil {
			ansi = fi.Mode()&os.ModeCharDevice != 0
		}
	}
	prevLines := 0
	for {
		fl, err := scan()
		if err != nil {
			return err
		}
		var frame bytes.Buffer
		if err := fl.WriteText(&frame); err != nil {
			return err
		}
		if ansi && prevLines > 0 {
			fmt.Fprintf(stdout, "\x1b[%dA\x1b[J", prevLines)
		}
		if _, err := stdout.Write(frame.Bytes()); err != nil {
			return err
		}
		prevLines = bytes.Count(frame.Bytes(), []byte{'\n'})
		if fl.Terminal() {
			return failErr(fl)
		}
		time.Sleep(interval)
	}
}

// parseShard parses a "k/N" shard spec; an empty spec means no
// sharding (0, 0).
func parseShard(spec string) (k, n int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(spec, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard %q: want k/N, e.g. 1/4", spec)
	}
	k, err = strconv.Atoi(spec[:i])
	if err == nil {
		n, err = strconv.Atoi(spec[i+1:])
	}
	if err != nil || n <= 0 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("-shard %q: want k/N with 0 <= k < N", spec)
	}
	return k, n, nil
}

// dumpFlight best-effort writes the accumulated flight streams — used on
// campaign error paths, where the pinned anomalous streams are exactly
// what post-mortem debugging needs. Failures to dump are reported but
// never mask the original error.
func dumpFlight(path string, d trace.FlightDump) {
	if len(d.Streams) == 0 {
		return
	}
	if err := writeFlight(path, d); err != nil {
		fmt.Fprintln(os.Stderr, "mlckpt: flight dump:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mlckpt: flight recorder dumped to %s\n", path)
}

// writeFlight writes flight dump d to path.
func writeFlight(path string, d trace.FlightDump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteFlight(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// listTechniques renders the registry metadata — no hard-coded
// technique knowledge; everything comes from model.Infos.
func listTechniques(w io.Writer) error {
	tab := report.NewTable("technique", "levels", "summary", "citation")
	for _, info := range model.Infos() {
		tab.AddRow(info.Name, levelsLabel(info), info.Summary, info.Citation)
	}
	return tab.Render(w)
}

func levelsLabel(info model.Info) string {
	if info.MaxLevels == 0 {
		return "any"
	}
	return fmt.Sprintf("≤%d", info.MaxLevels)
}

func buildSystem(name, config string, mtbf, tb float64, probs, times string) (*system.System, error) {
	if name != "" {
		return system.ByName(name)
	}
	if config != "" {
		f, err := os.Open(config)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return system.ReadJSON(f)
	}
	if probs == "" || times == "" || mtbf <= 0 {
		return nil, fmt.Errorf("custom systems need -config, or -mtbf with -probs and -times (or use -system)")
	}
	ps, err := parseFloats(probs)
	if err != nil {
		return nil, fmt.Errorf("-probs: %w", err)
	}
	ts, err := parseFloats(times)
	if err != nil {
		return nil, fmt.Errorf("-times: %w", err)
	}
	if len(ps) != len(ts) {
		return nil, fmt.Errorf("-probs has %d entries but -times has %d", len(ps), len(ts))
	}
	if tb <= 0 {
		tb = 1440
	}
	s := &system.System{Name: "custom", MTBF: mtbf, BaselineTime: tb}
	for i := range ps {
		s.Levels = append(s.Levels, system.Level{
			Checkpoint: ts[i], Restart: ts[i], SeverityProb: ps[i],
		})
	}
	return s, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// refitFromLog replaces the system's failure model with rates fitted
// from a CSV failure log, and reports a burstiness diagnostic for the
// exponential assumption.
func refitFromLog(sys *system.System, path string) (*system.System, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	entries, err := faultlog.ParseCSV(f)
	if err != nil {
		return nil, "", err
	}
	fit, err := faultlog.Analyze(entries, sys.NumLevels(), 0)
	if err != nil {
		return nil, "", err
	}
	refit, err := fit.ApplyTo(sys)
	if err != nil {
		return nil, "", err
	}
	diag := fmt.Sprintf("faultlog: %d failures over %.0f min -> MTBF %.2f min",
		len(entries), fit.Duration, fit.MTBF)
	if cv2, err := faultlog.ExponentialGoodness(faultlog.Interarrivals(entries)); err == nil {
		diag += fmt.Sprintf("; inter-arrival cv2 = %.2f (1 = exponential)", cv2)
	}
	return refit, diag, nil
}
