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
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/conformance"
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
	progressInterval := fs.Duration("progress-interval", 0, "minimum time between -progress lines (0 = default 500ms, negative = every tick)")
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
	if *jsonOut && *crn {
		return fmt.Errorf("-json is not supported with -crn yet; use the variance report")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}
	if shardN > 0 {
		if err := os.MkdirAll(*shardDir, 0o755); err != nil {
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
	var sink *obs.SimMetrics
	if *metricsPath != "" || *listen != "" {
		sink = obs.NewSimMetrics()
	}
	// Spans are recorded whenever something can show them: the summary
	// table, the /spans endpoint, or the -metrics snapshot.
	var tracer *obs.Tracer
	if *traceSummary || *listen != "" || *metricsPath != "" {
		tracer = obs.NewTracer()
	}
	flightOn := *flightPath != "" || *listen != ""
	var flightStreams []trace.FlightStream
	var prog *obs.Progress
	if *progress {
		budget := int64(len(techNames) * *trials)
		if *crn && *trials == 0 {
			budget = int64(len(techNames)) * 400 // CompareTechniques' default
		}
		prog = obs.NewProgress(os.Stderr, "mlckpt", budget)
		if *progressInterval != 0 {
			prog.SetInterval(*progressInterval)
		}
		defer prog.Finish()
	}
	// runID correlates this invocation's artifacts — event-log lines,
	// flight dumps — across the fleet; per-cell config digests (shared
	// by all shards of a cell) identify each campaign's sidecars.
	runID := sidecar.ConfigDigest("mlckpt", sys.Name, *techs,
		strconv.FormatUint(*seed, 10), strconv.Itoa(*trials))
	var events *obs.EventLog
	if *logJSON {
		events = obs.NewEventLog(os.Stderr, "")
	}
	var live *obshttp.Live
	var stats *obs.StreamSet
	if *listen != "" {
		live = obshttp.NewLive()
		stats = live.Stats
		if flightOn {
			// Publish an empty dump so /flight serves from the start.
			if err := live.PublishFlight(func(w io.Writer) error {
				return trace.WriteFlightWithRun(w, runID, nil)
			}); err != nil {
				return err
			}
		}
		// /shards serves the fleet view over whichever sidecar directory
		// this process writes into (shard files, or checkpoints).
		scanDir := *ckptDir
		if shardN > 0 || *mergeShards > 0 {
			scanDir = *shardDir
		}
		if scanDir != "" {
			live.SetShards(func() (any, error) {
				files, err := sidecar.Scan(scanDir)
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
	} else if sink != nil {
		stats = obs.NewStreamSet()
	}

	if *crn {
		// The paired runner drives every technique through one shared
		// campaign, so the per-technique conformance and flight-recorder
		// plumbing below does not apply.
		if *check || *flightPath != "" {
			return fmt.Errorf("-crn is incompatible with -check and -flight; run them on individual techniques without -crn")
		}
		opt := experiments.Options{
			Trials:     *trials,
			Seed:       *seed,
			CITarget:   *ciTarget,
			Metrics:    sink,
			Spans:      tracer,
			TrialStats: stats,
		}
		if prog != nil {
			opt.TrialDone = prog.Tick
		}
		rep, err := experiments.CompareTechniques(sys, techNames, opt)
		if err != nil {
			return err
		}
		if err := report.VarianceReport(stdout, rep); err != nil {
			return err
		}
		if live != nil {
			if sink != nil {
				live.PublishSnapshot(sink.Snapshot())
			}
			live.PublishSpans(tracer.Snapshot())
		}
		return finish(stdout, *traceSummary, *metricsPath, *memprofile, sink, tracer, stats)
	}
	if *ciTarget > 0 {
		return fmt.Errorf("-ci-target needs -crn (sequential stopping is defined on paired CIs)")
	}

	tab := report.NewTable("technique", "levels", "plan", "predicted eff", "sim eff (mean±σ)")
	results := runResults{System: sys.Name, Trials: *trials, Seed: *seed}
	for _, name := range techNames {
		tech, err := model.New(name)
		if err != nil {
			return err
		}
		info, err := model.Describe(name)
		if err != nil {
			return err
		}
		if sink != nil {
			// Techniques with an instrumented optimizer sweep share the
			// simulation telemetry snapshot.
			if m, ok := tech.(interface{ SetSweepMetrics(*obs.Registry) }); ok {
				m.SetSweepMetrics(sink.Registry())
			}
		}
		cellSpan := tracer.Start("cell")
		var sweepSpans *obs.Tracer
		if tracer != nil {
			if s, ok := tech.(interface{ SetSweepSpans(*obs.Tracer) }); ok {
				sweepSpans = obs.NewTracer()
				s.SetSweepSpans(sweepSpans)
			}
		}
		optSpan := tracer.Start("optimize")
		plan, pred, err := tech.Optimize(sys)
		optSpan.End()
		optSpan.Adopt(sweepSpans)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		simCol := ""
		var simRes *sim.CampaignResult
		shardFile := ""
		if *trials > 0 {
			camp := sim.Campaign{
				Scenario: sim.Scenario{System: sys, Plan: plan},
				Trials:   *trials,
				Seed:     rng.Campaign(*seed, "mlckpt").Scenario(sys.Name + "/" + name),
			}
			if *streamSim {
				camp.Sink = sim.NewStreamSink()
			}
			if *ckptDir != "" {
				iv := *ckptInterval
				if iv <= 0 {
					if iv = *trials / 8; iv < 1 {
						iv = 1
					}
				}
				camp.Checkpoint = &sim.CheckpointConfig{
					Path:     filepath.Join(*ckptDir, cellFile(sys.Name, name)+".ckpt"),
					Interval: iv,
					Resume:   *resume,
				}
			}
			// The cell digest identifies this campaign's configuration:
			// every shard of the same cell computes the same digest, so
			// their sidecars and log lines group into one fleet.
			cellLabel := sys.Name + "/" + name
			sinkKind := "exact"
			if *streamSim {
				sinkKind = "stream"
			}
			cellDigest := sidecar.ConfigDigest(sys.Name, name,
				strconv.FormatUint(*seed, 10), strconv.Itoa(*trials),
				strconv.Itoa(camp.Block), sinkKind)
			cellEvents := events.WithRun(cellDigest)
			if shardN > 0 {
				spath := shardPath(*shardDir, sys.Name, name, shardK, shardN)
				var pool *obs.Pool
				if sink != nil {
					pool = &obs.Pool{}
					camp.ObserverFactory = pool.Observer
				}
				sw := sidecar.NewWriter(spath+sidecar.Suffix, sidecar.Meta{
					RunID: cellDigest, ConfigDigest: cellDigest,
					Label: cellLabel, Shard: shardK, Of: shardN,
				})
				if stats != nil {
					sw.SetLiveStats(stats.Snapshots)
				}
				camp.Progress = sw.Update
				chainEvents(&camp, cellEvents, cellLabel, "", shardK, shardN)
				campSpan := tracer.Start("campaign")
				err := camp.RunShard(spath, shardK, shardN)
				campSpan.End()
				if err != nil {
					// The final failed sidecar was already flushed by the
					// progress hook.
					return fmt.Errorf("%s: shard %d/%d: %w", name, shardK, shardN, err)
				}
				if pool != nil {
					m, err := pool.Merged()
					if err != nil {
						return err
					}
					if err := sink.Merge(m); err != nil {
						return err
					}
					// Enrich the terminal sidecar with the shard's merged
					// registry so fleet monitors can aggregate telemetry
					// across processes (sidecar.MergeRegistries).
					snap := m.Snapshot()
					sw.SetRegistry(&snap)
				}
				if err := sw.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, "mlckpt: sidecar:", err)
				}
				lo, hi := sim.ShardRange(camp.Trials, camp.Block, shardK, shardN)
				simCol = fmt.Sprintf("shard %d/%d (trials %d..%d)", shardK, shardN, lo, hi-1)
				shardFile = spath
			} else if *mergeShards > 0 {
				paths := make([]string, *mergeShards)
				for k := range paths {
					paths[k] = shardPath(*shardDir, sys.Name, name, k, *mergeShards)
				}
				res, err := camp.MergeShards(paths...)
				if err != nil {
					return fmt.Errorf("%s: merge shards: %w", name, err)
				}
				cellEvents.ShardMerge(paths, *trials)
				simCol = fmt.Sprintf("%.3f±%.3f", res.Efficiency.Mean, res.Efficiency.Std)
				simRes = &res
			} else {
				var sw *sidecar.Writer
				if camp.Checkpoint != nil {
					// Checkpointed runs keep a progress sidecar next to the
					// checkpoint artifact; plain in-memory runs have no
					// artifact path to anchor one.
					sw = sidecar.NewWriter(camp.Checkpoint.Path+sidecar.Suffix, sidecar.Meta{
						RunID: cellDigest, ConfigDigest: cellDigest, Label: cellLabel,
					})
					if stats != nil {
						sw.SetLiveStats(stats.Snapshots)
					}
					camp.Progress = sw.Update
				}
				ckPath := ""
				if camp.Checkpoint != nil {
					ckPath = camp.Checkpoint.Path
				}
				chainEvents(&camp, cellEvents, cellLabel, ckPath, 0, 1)
				var pool *obs.Pool
				if sink != nil {
					pool = &obs.Pool{}
				}
				var ckPool *conformance.Pool
				if *check {
					ckPool, err = conformance.NewPool(camp.Scenario)
					if err != nil {
						return fmt.Errorf("%s: %w", name, err)
					}
				}
				var flightPool *trace.FlightPool
				if flightOn {
					flightPool = &trace.FlightPool{}
					camp.TrialStart = flightPool.TrialStart
				}
				if pool != nil || ckPool != nil || flightPool != nil {
					camp.ObserverFactory = func(w int) sim.Observer {
						var list []sim.Observer
						var ck *conformance.Checker
						if ckPool != nil {
							ck = ckPool.Observer(w).(*conformance.Checker)
							list = append(list, ck)
						}
						if flightPool != nil {
							rec := flightPool.Recorder(w)
							if ck != nil {
								// The checker runs earlier in the observer
								// chain, so its verdict is current at the
								// trial's terminal event: pin the streams of
								// trials that added violations.
								seen := 0
								rec.SetJudge(func(sim.Event) (string, bool) {
									if n := len(ck.Violations()); n > seen {
										seen = n
										return "conformance violation", true
									}
									return "", false
								})
							}
							list = append(list, rec)
						}
						if pool != nil {
							list = append(list, pool.Observer(w))
						}
						if len(list) == 1 {
							return list[0]
						}
						return obs.Multi(list...)
					}
				}
				var trialTracers *obs.TracerPool
				if tracer != nil {
					trialTracers = &obs.TracerPool{}
					inner := camp.ObserverFactory
					camp.ObserverFactory = func(w int) sim.Observer {
						sp := obs.TrialSpans(trialTracers.Shard())
						if inner == nil {
							return sp
						}
						return obs.Multi(inner(w), sp)
					}
				}
				var effStat, wallStat *obs.StreamStat
				if stats != nil {
					effStat = stats.Stat("trial_efficiency")
					wallStat = stats.Stat("trial_walltime_minutes")
				}
				if prog != nil || stats != nil {
					camp.TrialDone = func(r sim.TrialResult) {
						if effStat != nil {
							effStat.Observe(r.Efficiency)
							wallStat.Observe(r.WallTime)
						}
						if prog != nil {
							prog.Tick()
						}
					}
				}
				collectFlight := func() {
					if flightPool == nil {
						return
					}
					ss := flightPool.Streams()
					for i := range ss {
						ss[i].Label = name
					}
					flightStreams = append(flightStreams, ss...)
				}
				campSpan := tracer.Start("campaign")
				res, err := camp.Run()
				campSpan.End()
				if trialTracers != nil {
					campSpan.Adopt(trialTracers.Merged())
				}
				if err != nil {
					// The black box is most valuable on the crash path: the
					// aborted trial's stream is pinned as "unterminated".
					collectFlight()
					dumpFlight(*flightPath, runID, flightStreams)
					return fmt.Errorf("%s: simulate: %w", name, err)
				}
				if ckPool != nil {
					if err := ckPool.Err(); err != nil {
						collectFlight()
						dumpFlight(*flightPath, runID, flightStreams)
						return fmt.Errorf("%s: conformance: %w", name, err)
					}
					if !*jsonOut {
						fmt.Fprintf(stdout, "conformance[%s]: %d trials, %d events, all invariants held\n",
							name, ckPool.Trials(), ckPool.Events())
					}
				}
				collectFlight()
				if pool != nil {
					m, err := pool.Merged()
					if err != nil {
						return err
					}
					if err := sink.Merge(m); err != nil {
						return err
					}
					if sw != nil {
						snap := m.Snapshot()
						sw.SetRegistry(&snap)
					}
				}
				if sw != nil {
					if err := sw.Flush(); err != nil {
						fmt.Fprintln(os.Stderr, "mlckpt: sidecar:", err)
					}
				}
				simCol = fmt.Sprintf("%.3f±%.3f", res.Efficiency.Mean, res.Efficiency.Std)
				simRes = &res
			}
		}
		results.Results = append(results.Results, techResult{
			Technique: name,
			Plan:      plan.String(),
			Predicted: pred.Efficiency,
			Sim:       simRes,
			ShardFile: shardFile,
		})
		tab.AddRow(name, levelsLabel(info), plan.String(), fmt.Sprintf("%.3f", pred.Efficiency), simCol)
		cellSpan.End()
		if live != nil {
			// Checkpoint the merged telemetry so the HTTP endpoints show
			// everything up to the technique that just finished.
			if sink != nil {
				live.PublishSnapshot(sink.Snapshot())
			}
			live.PublishSpans(tracer.Snapshot())
			if flightOn {
				if err := live.PublishFlight(func(w io.Writer) error {
					return trace.WriteFlightWithRun(w, runID, flightStreams)
				}); err != nil {
					return err
				}
			}
		}
	}
	if *jsonOut {
		if err := writeResults(stdout, results); err != nil {
			return err
		}
	} else if err := tab.Render(stdout); err != nil {
		return err
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := writeResults(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *flightPath != "" {
		f, err := os.Create(*flightPath)
		if err != nil {
			return err
		}
		if err := trace.WriteFlightWithRun(f, runID, flightStreams); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		held := 0
		for _, s := range flightStreams {
			if s.Held {
				held++
			}
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "flight recorder: %d streams (%d held) written to %s\n",
				len(flightStreams), held, *flightPath)
		}
	}
	return finish(stdout, *traceSummary, *metricsPath, *memprofile, sink, tracer, stats)
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
// -json and -out.
type runResults struct {
	System  string       `json:"system"`
	Trials  int          `json:"trials"`
	Seed    uint64       `json:"seed"`
	Results []techResult `json:"results"`
}

func writeResults(w io.Writer, r runResults) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
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

// chainEvents chains a structured-event emitter onto the campaign's
// Progress hook (after any sidecar writer already installed):
// campaign_start on the first update — plus resume when the run picked
// up a checkpoint — checkpoint on flagged merges, and
// campaign_error/campaign_end on the terminal update.
func chainEvents(camp *sim.Campaign, ev *obs.EventLog, label, ckPath string, shard, of int) {
	if ev == nil {
		return
	}
	ev = ev.WithLabel(label)
	prev := camp.Progress
	started := time.Now()
	first := true
	// Progress runs under the runner's merge lock; no extra
	// synchronization needed for the closure state.
	camp.Progress = func(u sim.ProgressUpdate) {
		if prev != nil {
			prev(u)
		}
		if first {
			first = false
			ev.CampaignStart(shard, of, u.First, u.Limit, u.Total)
			if u.First > 0 && ckPath != "" {
				ev.Resume(ckPath, u.First)
			}
		}
		if u.Checkpointed {
			ev.Checkpoint(ckPath, u.Merged)
		}
		if u.Final {
			ev.Error(string(u.State), u.Err)
			ev.CampaignEnd(string(u.State), u.Merged, time.Since(started))
		}
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

// cellFile names per-technique artifacts (checkpoints, shard files)
// after the system and technique, with filesystem-hostile runes mapped
// to '_'.
func cellFile(sysName, tech string) string {
	safe := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}
	return strings.Map(safe, sysName) + "-" + strings.Map(safe, tech)
}

func shardPath(dir, sysName, tech string, k, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard%dof%d.json", cellFile(sysName, tech), k, n))
}

// finish writes the run's shared epilogue artifacts: the span summary,
// the telemetry snapshot, and the heap profile.
func finish(stdout io.Writer, traceSummary bool, metricsPath, memprofile string, sink *obs.SimMetrics, tracer *obs.Tracer, stats *obs.StreamSet) error {
	if traceSummary {
		fmt.Fprintln(stdout)
		if err := obs.WriteSpanSummary(stdout, tracer.Snapshot()); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		snap := sink.Snapshot()
		if tracer != nil {
			snap.Spans = tracer.Snapshot()
		}
		if stats != nil {
			snap.Stats = stats.Snapshots()
		}
		f, err := os.Create(metricsPath)
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
	if memprofile != "" {
		f, err := os.Create(memprofile)
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

// dumpFlight best-effort writes the accumulated flight streams — used on
// campaign error paths, where the pinned anomalous streams are exactly
// what post-mortem debugging needs. Failures to dump are reported but
// never mask the original error.
func dumpFlight(path, runID string, streams []trace.FlightStream) {
	if path == "" || len(streams) == 0 {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlckpt: flight dump:", err)
		return
	}
	defer f.Close()
	if err := trace.WriteFlightWithRun(f, runID, streams); err != nil {
		fmt.Fprintln(os.Stderr, "mlckpt: flight dump:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mlckpt: flight recorder dumped to %s\n", path)
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
