// Command simtrace runs a single simulated trial with full event tracing
// and writes the trace as JSON (or a human-readable summary). It is the
// debugging companion to the campaign-scale repro tool, and doubles as
// the reader for flight-recorder dumps produced by mlckpt -flight.
//
// Usage:
//
//	simtrace -system D4 -tau0 1.2 -counts 3 [-levels 1,2] [-out out.json]
//	simtrace -system D4 -summary        # phase-time breakdown table
//	simtrace -flight dump.json          # inspect a flight-recorder dump
//	simtrace -flight dump.json -json    # ... machine-readable
//	simtrace -progress ckpt-dir/        # aggregate progress sidecars
//	simtrace -progress shard.progress   # ... or inspect a single one
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/sidecar"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"

	_ "repro/internal/model/dauwe"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simtrace", flag.ContinueOnError)
	sysName := fs.String("system", "D4", "Table I system name")
	tau0 := fs.Float64("tau0", 0, "computation interval (0 = use the dauwe optimizer)")
	counts := fs.String("counts", "", "pattern counts N_1..N_{ℓ-1}, comma-separated")
	levels := fs.String("levels", "", "used levels, comma-separated (default all)")
	seed := fs.Uint64("seed", 1, "trial seed")
	outPath := fs.String("out", "", "write the full event trace as JSON to this path")
	jsonOut := fs.Bool("json", false, "write machine-readable JSON to stdout instead of the human-readable rendering")
	maxEvents := fs.Int("print", 25, "print at most this many events to stdout")
	summary := fs.Bool("summary", false, "print the per-trial phase-time breakdown table instead of the raw event stream")
	check := fs.Bool("check", false, "verify the trial's event stream against the protocol invariants (fails on any violation)")
	flightFile := fs.String("flight", "", "read a flight-recorder dump (mlckpt -flight) instead of simulating")
	progress := fs.String("progress", "", "read progress sidecars (a .progress file or a directory of them) instead of simulating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flightFile != "" {
		return readFlight(*flightFile, *jsonOut, *maxEvents, stdout)
	}
	if *progress != "" {
		return readProgress(*progress, *jsonOut, stdout)
	}

	sys, err := system.ByName(*sysName)
	if err != nil {
		return err
	}
	var plan pattern.Plan
	if *tau0 > 0 {
		plan = pattern.Plan{Tau0: *tau0}
		if *levels != "" {
			plan.Levels, err = parseInts(*levels)
			if err != nil {
				return fmt.Errorf("-levels: %w", err)
			}
		} else {
			plan.Levels = pattern.AllLevels(sys)
		}
		if *counts != "" {
			plan.Counts, err = parseInts(*counts)
			if err != nil {
				return fmt.Errorf("-counts: %w", err)
			}
		} else {
			plan.Counts = make([]int, len(plan.Levels)-1)
		}
	} else {
		tech, err := model.New("dauwe")
		if err != nil {
			return err
		}
		plan, _, err = tech.Optimize(sys)
		if err != nil {
			return err
		}
	}
	if err := plan.Validate(sys); err != nil {
		return err
	}

	rec := &trace.Recorder{}
	metrics := obs.NewSimMetrics()
	scn := sim.Scenario{System: sys, Plan: plan}
	eng, err := sim.NewEngine(scn)
	if err != nil {
		return err
	}
	observers := []sim.Observer{rec, metrics}
	var checker *conformance.Checker
	if *check {
		checker, err = conformance.NewChecker(scn)
		if err != nil {
			return err
		}
		observers = append(observers, checker)
	}
	eng.Observe(obs.Multi(observers...))
	res, err := eng.Run(rng.Campaign(*seed, "simtrace").Trial(0))
	if err != nil {
		return err
	}
	if checker != nil {
		if err := checker.Err(); err != nil {
			return fmt.Errorf("conformance: %w", err)
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "conformance: %d events checked, all invariants held\n", checker.EventsChecked())
		}
	}

	if *jsonOut {
		// Machine-readable mode: the event trace is the only stdout
		// output, so the command composes with jq and friends.
		if err := rec.Write(stdout); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "system: %s\nplan:   %s\n", sys, plan)
		fmt.Fprintf(stdout, "wall=%.2fmin completed=%v efficiency=%.4f failures=%v scratch=%d\n",
			res.WallTime, res.Completed, res.Efficiency, res.Failures, res.ScratchRestarts)
		b := res.Breakdown
		fmt.Fprintf(stdout, "breakdown: useful=%.2f lost=%.2f ckptOK=%.2f ckptFail=%.2f restartOK=%.2f restartFail=%.2f\n",
			b.UsefulCompute, b.LostCompute, b.CheckpointOK, b.CheckpointFail, b.RestartOK, b.RestartFail)
		if *summary {
			if err := metrics.WriteSummary(stdout); err != nil {
				return err
			}
		} else {
			counts2 := rec.Counts()
			fmt.Fprintf(stdout, "events: %d total (%d failures, %d phase ends)\n",
				len(rec.Records), counts2["failure"], counts2["phase_end"])
			for i, r := range rec.Records {
				if i >= *maxEvents {
					fmt.Fprintf(stdout, "... %d more events\n", len(rec.Records)-i)
					break
				}
				fmt.Fprintf(stdout, "  t=%9.3f %-12s %-10s level=%d progress=%.2f\n",
					r.Time, r.Kind, r.Phase, r.Level, r.Progress)
			}
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Write(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "trace written to %s\n", *outPath)
		}
	}
	return nil
}

// readProgress renders progress sidecars — a whole directory of them as
// an aggregated fleet view, or one .progress file as a fleet of one. In
// JSON mode the sidecar.Fleet aggregate is emitted for downstream
// tooling (same payload as mlckpt's /shards endpoint).
func readProgress(path string, jsonOut bool, stdout io.Writer) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var files []*sidecar.File
	if st.IsDir() {
		files, err = sidecar.Scan(path)
		if err != nil {
			return err
		}
	} else {
		f, err := sidecar.Read(path)
		if err != nil {
			return err
		}
		files = []*sidecar.File{f}
	}
	fl := sidecar.BuildFleet(files, time.Now(), 0)
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		return enc.Encode(fl)
	}
	return fl.WriteText(stdout)
}

// readFlight renders a flight-recorder dump: one header line per stream,
// with up to maxEvents events for held (anomalous) streams. In JSON mode
// the parsed streams are re-emitted verbatim for downstream tooling.
func readFlight(path string, jsonOut bool, maxEvents int, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := trace.ReadFlight(f)
	if err != nil {
		return err
	}
	if jsonOut {
		return trace.WriteFlight(stdout, d)
	}
	if d.RunID != "" {
		fmt.Fprintf(stdout, "run: %s\n", d.RunID)
	}
	fmt.Fprintf(stdout, "flight dump: %s\n", d.Counts())
	for _, s := range d.Streams {
		label := ""
		if s.Label != "" {
			label = " label=" + s.Label
		}
		status := "recent"
		if s.Held {
			status = "HELD: " + s.Reason
		}
		fmt.Fprintf(stdout, "trial %d worker %d%s — %d events — %s\n",
			s.Trial, s.Worker, label, len(s.Records), status)
		if !s.Held {
			continue
		}
		for i, r := range s.Records {
			if i >= maxEvents {
				fmt.Fprintf(stdout, "  ... %d more events\n", len(s.Records)-i)
				break
			}
			fmt.Fprintf(stdout, "  t=%9.3f %-12s %-10s level=%d progress=%.2f\n",
				r.Time, r.Kind, r.Phase, r.Level, r.Progress)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
