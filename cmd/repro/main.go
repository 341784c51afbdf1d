// Command repro regenerates the paper's tables and figures. Each
// experiment optimizes checkpoint intervals with every technique under
// comparison, simulates the optimized plans over randomized trials, and
// writes the paper's rows as an aligned text table plus optional CSV and
// SVG artifacts.
//
// Usage:
//
//	repro [flags] table1|fig1|fig2|fig3|fig4|fig5|fig6|sensitivity|
//	              ablation-policy|ablation-weibull|ablation-async|all
//
// Flags:
//
//	-trials N    override the per-scenario trial count (default: paper's)
//	-seed N      campaign base seed (default 1)
//	-outdir DIR  write <experiment>.txt/.csv/.svg under DIR ("" = stdout only)
//	-json        machine-readable JSON results on stdout instead of tables
//	-quiet       suppress per-scenario progress lines
//	-wall F      per-trial wall-time cap as a multiple of T_B (default 150)
//	-fast        low-resolution optimizer grids for smoke runs
//	-crn         common random numbers across each row's techniques
//	-ci-target W with -crn, sequential stopping at paired CI half-width W
//	-stream      constant-memory simulation aggregation (quantile sketches)
//	-checkpoint DIR / -resume   periodic campaign checkpoints + resume
//	-metrics F   write an aggregate telemetry snapshot (JSON) to file F
//	-progress    report trials/sec and ETA on stderr while running
//	-cpuprofile F / -memprofile F   write runtime/pprof profiles
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/obs/sidecar"
	"repro/internal/report"
	"repro/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	trials := fs.Int("trials", 0, "per-scenario trial count (0 = paper default)")
	seed := fs.Uint64("seed", 1, "campaign base seed")
	outDir := fs.String("outdir", "", "directory for .txt/.csv/.svg artifacts")
	jsonOut := fs.Bool("json", false, "write each target's result as machine-readable JSON to stdout instead of text tables")
	quiet := fs.Bool("quiet", false, "suppress progress lines")
	wall := fs.Float64("wall", 0, "trial wall cap as multiple of T_B (0 = default 150)")
	fast := fs.Bool("fast", false, "low-resolution optimizer grids (smoke runs)")
	crn := fs.Bool("crn", false, "run each row's techniques under common random numbers (paired significance)")
	ciTarget := fs.Float64("ci-target", 0, "with -crn, stop each row once every paired 95% CI half-width is below this (0 = fixed trial count)")
	metricsPath := fs.String("metrics", "", "write an aggregate telemetry snapshot (JSON) to this file")
	progress := fs.Bool("progress", false, "report trials/sec and ETA on stderr")
	progressInterval := fs.Duration("progress-interval", 0, "minimum time between -progress lines (0 = default 500ms, negative = every tick)")
	listen := fs.String("listen", "", "serve live telemetry over HTTP on this address (/metrics, /snapshot, /spans, /debug/pprof/)")
	traceSummary := fs.Bool("trace-summary", false, "print the hierarchical span time breakdown after the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	streamSim := fs.Bool("stream", false, "aggregate simulations in constant memory (sketch-backed summaries instead of per-trial slices)")
	ckptDir := fs.String("checkpoint", "", "checkpoint each cell's campaign into this directory (resume with -resume); ignored under -crn")
	ckptInterval := fs.Int("checkpoint-interval", 0, "trials between checkpoint writes (0 = trials/8, at least 1)")
	resume := fs.Bool("resume", false, "with -checkpoint, resume each cell's campaign from its checkpoint when present")
	logJSON := fs.Bool("log-json", false, "emit structured JSON event logs (campaign start/checkpoint/resume/end) on stderr, correlated by run ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: repro [flags] table1|fig1|fig2|fig3|fig4|fig5|fig6|sensitivity|ablation-policy|ablation-weibull|ablation-async|all")
	}
	if *ciTarget > 0 && !*crn {
		return fmt.Errorf("-ci-target needs -crn (sequential stopping is defined on paired CIs)")
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}
	opt := experiments.Options{
		Trials:             *trials,
		Seed:               *seed,
		MaxWallFactor:      *wall,
		Fast:               *fast,
		CRN:                *crn,
		CITarget:           *ciTarget,
		Stream:             *streamSim,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
		Resume:             *resume,
	}
	if !*quiet {
		opt.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	which := fs.Arg(0)
	if *logJSON {
		// One run ID for the whole invocation; every record of a
		// campaign carries its cell's label (system and technique), so
		// the records of rows running at once group by cell.
		runID := sidecar.ConfigDigest("repro", which,
			strconv.FormatUint(*seed, 10), strconv.Itoa(*trials))
		opt.Events = obs.NewEventLog(os.Stderr, runID)
	}
	targets := []string{which}
	if which == "all" {
		targets = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6"}
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
	var sink *obs.SimMetrics
	if *metricsPath != "" || *listen != "" {
		sink = obs.NewSimMetrics()
		opt.Metrics = sink
	}
	if *traceSummary || *listen != "" || *metricsPath != "" {
		opt.Spans = obs.NewTracer()
	}
	if *progress {
		prog := obs.NewProgress(os.Stderr, "repro", trialBudget(targets, opt))
		if *progressInterval != 0 {
			prog.SetInterval(*progressInterval)
		}
		opt.TrialDone = prog.Tick
		defer prog.Finish()
	}
	var live *obshttp.Live
	if *listen != "" {
		live = obshttp.NewLive()
		opt.TrialStats = live.Stats
		srv, err := obshttp.Serve(*listen, live.Options())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "repro: telemetry on http://%s/metrics (also /snapshot, /spans, /debug/pprof/)\n", srv.Addr())
	} else if *metricsPath != "" {
		opt.TrialStats = obs.NewStreamSet()
	}
	// fig6 is derived from fig4's grid; when both run, share the run.
	var sharedFig4 *experiments.Fig4Result
	for _, target := range targets {
		start := time.Now()
		if err := runOne(target, opt, *outDir, *jsonOut, stdout, &sharedFig4); err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done in %v\n", target, time.Since(start).Round(time.Millisecond))
		}
		if live != nil {
			// Checkpoint telemetry at the target boundary: worker shards
			// are merged, so the endpoints now cover this target too.
			if sink != nil {
				live.PublishSnapshot(sink.Snapshot())
			}
			live.PublishSpans(opt.Spans.Snapshot())
		}
	}
	if *traceSummary {
		fmt.Fprintln(stdout)
		if err := obs.WriteSpanSummary(stdout, opt.Spans.Snapshot()); err != nil {
			return err
		}
	}
	if *metricsPath != "" {
		snap := sink.Snapshot()
		if opt.Spans != nil {
			snap.Spans = opt.Spans.Snapshot()
		}
		if opt.TrialStats != nil {
			snap.Stats = opt.TrialStats.Snapshots()
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// trialBudget estimates the total simulated trials the chosen targets
// will run, for the progress reporter's ETA. Targets whose trial counts
// are not statically known contribute 0 (the reporter then shows rate
// without an ETA when everything is unknown).
func trialBudget(targets []string, opt experiments.Options) int64 {
	nsys := int64(len(system.TableI()))
	trials := func(def int) int64 {
		if opt.Trials > 0 {
			return int64(opt.Trials)
		}
		return int64(def)
	}
	var total int64
	seenFig4 := false
	for _, t := range targets {
		switch t {
		case "fig2":
			total += nsys * int64(len(experiments.Fig2Techniques)) * trials(200)
		case "fig3":
			total += nsys * int64(len(experiments.BestTechniques)) * trials(200)
		case "fig4":
			total += int64(len(experiments.Fig4MTBFs)*len(experiments.Fig4PFSCosts)*len(experiments.BestTechniques)) * trials(200)
			seenFig4 = true
		case "fig5":
			total += int64(len(experiments.Fig4MTBFs)*2*len(experiments.BestTechniques)) * trials(400)
		case "fig6":
			if !seenFig4 { // otherwise fig6 reuses fig4's run
				total += int64(len(experiments.Fig4MTBFs)*len(experiments.Fig4PFSCosts)*len(experiments.BestTechniques)) * trials(200)
			}
		}
	}
	return total
}

// artifact opens DIR/name for writing (or returns nil when no out dir).
func artifact(outDir, name string) (*os.File, error) {
	if outDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(outDir, name))
}

// emit writes an artifact via render when an output directory is set.
func emit(outDir, name string, render func(io.Writer) error) error {
	f, err := artifact(outDir, name)
	if err != nil || f == nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	return f.Close()
}

// show writes a target's result to stdout: the JSON document when
// jsonOut is set, the text rendering otherwise. Artifact emission via
// -outdir is unaffected by the choice.
func show(stdout io.Writer, jsonOut bool, v any, render func(io.Writer) error) error {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	return render(stdout)
}

func runOne(target string, opt experiments.Options, outDir string, jsonOut bool, stdout io.Writer, sharedFig4 **experiments.Fig4Result) error {
	switch target {
	case "table1":
		if err := show(stdout, jsonOut, system.TableI(), report.TableI); err != nil {
			return err
		}
		if err := emit(outDir, "table1.txt", report.TableI); err != nil {
			return err
		}
		return emit(outDir, "table1.svg", report.TableISVG)

	case "fig1":
		note := "Figure 1 is the pattern illustration; written as fig1.svg (use -outdir)."
		if err := show(stdout, jsonOut, map[string]string{"note": note}, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, note)
			return err
		}); err != nil {
			return err
		}
		return emit(outDir, "fig1.svg", report.Fig1SVG)

	case "fig2":
		r, err := experiments.Fig2(opt)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Fig2(w, r) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig2.txt", func(w io.Writer) error { return report.Fig2(w, r) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig2.csv", func(w io.Writer) error {
			return report.CellsCSV(w, r.Systems, r.Techniques, r.Cells)
		}); err != nil {
			return err
		}
		return emit(outDir, "fig2.svg", func(w io.Writer) error { return report.Fig2SVG(w, r) })

	case "fig3":
		r, err := experiments.Fig3(opt)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Fig3(w, r) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig3.txt", func(w io.Writer) error { return report.Fig3(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "fig3.svg", func(w io.Writer) error { return report.Fig3SVG(w, r) })

	case "fig4":
		r, err := experiments.Fig4(opt)
		if err != nil {
			return err
		}
		*sharedFig4 = r
		title := "Figure 4 — 1440-minute application on the exascale grid"
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Fig4(w, r, title) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig4.txt", func(w io.Writer) error { return report.Fig4(w, r, title) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig4.csv", func(w io.Writer) error {
			return report.CellsCSV(w, scenarioLabels(r), r.Techniques, r.Cells)
		}); err != nil {
			return err
		}
		return emit(outDir, "fig4.svg", func(w io.Writer) error { return report.Fig4SVG(w, r, title) })

	case "fig5":
		r, err := experiments.Fig5(opt)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Fig5(w, r) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig5.txt", func(w io.Writer) error { return report.Fig5(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "fig5.svg", func(w io.Writer) error { return report.Fig5SVG(w, r) })

	case "fig6":
		var r *experiments.Fig6Result
		var err error
		if *sharedFig4 != nil {
			r, err = experiments.Fig6FromFig4(*sharedFig4)
		} else {
			r, err = experiments.Fig6(opt)
		}
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Fig6(w, r) }); err != nil {
			return err
		}
		if err := emit(outDir, "fig6.txt", func(w io.Writer) error { return report.Fig6(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "fig6.svg", func(w io.Writer) error { return report.Fig6SVG(w, r) })

	case "sensitivity":
		r, err := experiments.Sensitivity(opt, "D4", nil)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Sensitivity(w, r) }); err != nil {
			return err
		}
		if err := emit(outDir, "sensitivity.txt", func(w io.Writer) error { return report.Sensitivity(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "sensitivity.svg", func(w io.Writer) error { return report.SensitivitySVG(w, r) })

	case "ablation-policy":
		r, err := experiments.PolicyAblation(opt, nil)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Ablation(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "ablation-policy.txt", func(w io.Writer) error { return report.Ablation(w, r) })

	case "ablation-async":
		r, err := experiments.AsyncAblation(opt, nil)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Ablation(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "ablation-async.txt", func(w io.Writer) error { return report.Ablation(w, r) })

	case "ablation-weibull":
		r, err := experiments.WeibullAblation(opt, 0.7, nil)
		if err != nil {
			return err
		}
		if err := show(stdout, jsonOut, r, func(w io.Writer) error { return report.Ablation(w, r) }); err != nil {
			return err
		}
		return emit(outDir, "ablation-weibull.txt", func(w io.Writer) error { return report.Ablation(w, r) })

	default:
		return fmt.Errorf("unknown experiment %q", target)
	}
}

func scenarioLabels(r *experiments.Fig4Result) []string {
	out := make([]string, len(r.Scenarios))
	for i, sc := range r.Scenarios {
		out[i] = sc.Label()
	}
	return out
}
