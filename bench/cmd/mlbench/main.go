// Command mlbench is the repository's benchmark (see bench/README.md).
// Run it through bench/run.sh from the repository root, which builds it
// and the mlckptd daemon first.
//
//	mlbench --workload NAME --seed N --seconds S --trace 0|1
//	    one workload; the last line of output is a JSON summary
//	mlbench -seed N [-out DIR] [-seconds S] [-trace 1] [-layers]
//	    every workload; one DIR/<workload>.json per workload
//	mlbench compare [-spec FILE] -base DIR... -head DIR...
//	    compare invocations of two commits on the same CPU
//	mlbench baseline [-spec FILE] DIR...
//	    summarize invocations of one commit as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return bench.ChildMain(args[1:], stdout)
		case "compare":
			return compare(args[1:], stdout, stderr)
		case "baseline":
			return baseline(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("mlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and end with a one-line JSON summary")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics instead of end-to-end ones")
	layers := fs.Bool("layers", false, "with every workload: also run the layer micro-benchmarks and the configuration-axis table")
	out := fs.String("out", "", "directory for one JSON result per workload")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	mlckptd := fs.String("mlckptd", "", "mlckptd binary (default: beside this program)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "mlbench: bad arguments (see -h)")
		return 2
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	if *mlckptd == "" {
		*mlckptd = filepath.Join(filepath.Dir(exe), "mlckptd")
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "mlbench:", err)
			return 1
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := bench.Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Exe: exe, Mlckptd: *mlckptd}

	if *workload != "" {
		return runOne(ctx, spec, *workload, cfg, *out, stdout, stderr)
	}
	code := 0
	for _, w := range spec.Workloads {
		res, err := bench.Run(ctx, w.Name, cfg)
		if err != nil {
			// The workload writes no result, which compare reports as
			// missing; the others still run.
			fmt.Fprintln(stderr, "mlbench:", err)
			code = 1
			continue
		}
		res.WriteLines(stdout)
		if err := writeResult(res, *out); err != nil {
			fmt.Fprintln(stderr, "mlbench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	if *layers {
		metrics, table, err := bench.Layers(*seed, false)
		if err != nil {
			fmt.Fprintln(stderr, "mlbench: layers:", err)
			return 1
		}
		res := &bench.Result{Workload: "layers", Metrics: metrics}
		res.WriteLines(stdout)
		fmt.Fprint(stdout, "\n", table)
		if *out != "" {
			b, err := json.MarshalIndent(metrics, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(*out, "layers.json"), append(b, '\n'), 0o644)
			}
			if err == nil {
				err = os.WriteFile(filepath.Join(*out, "layers.md"), []byte(table), 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, "mlbench:", err)
				return 1
			}
		}
	}
	return code
}

// runOne runs one workload and ends the output with its JSON summary:
// the end-to-end metrics of an untraced run, or the per-layer metrics
// (the layer micro-benchmarks plus the run's tracing overhead) of a
// traced one.
func runOne(ctx context.Context, spec *bench.Spec, name string, cfg bench.Config, out string, stdout, stderr io.Writer) int {
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == name
	}
	if !known {
		fmt.Fprintf(stderr, "mlbench: workload %q is not in BENCHMARK.json\n", name)
		return 2
	}
	res, err := bench.Run(ctx, name, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	specs := spec.EndToEnd
	if cfg.Trace {
		specs = spec.PerLayer
		metrics, table, err := bench.Layers(cfg.Seed, false)
		if err != nil {
			fmt.Fprintln(stderr, "mlbench: layers:", err)
			return 1
		}
		for k, m := range metrics {
			res.Metrics[k] = m
		}
		fmt.Fprint(stdout, table, "\n")
	}
	res.WriteLines(stdout)
	if err := writeResult(res, out); err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	line, err := res.SummaryLine(specs)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeResult writes DIR/<workload>.json (or .trace.json) when dir is set.
func writeResult(res *bench.Result, dir string) error {
	if dir == "" {
		return nil
	}
	name := res.Workload + ".json"
	if res.Trace {
		name = res.Workload + ".trace.json"
	}
	return res.WriteFile(filepath.Join(dir, name))
}

// compare parses `compare [-spec FILE] -base DIR... -head DIR...`.
func compare(args []string, stdout, stderr io.Writer) int {
	specPath := "BENCHMARK.json"
	var base, head []string
	var into *[]string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-base", "--base":
			into = &base
		case "-head", "--head":
			into = &head
		case "-spec", "--spec":
			if i+1 == len(args) {
				fmt.Fprintf(stderr, "mlbench compare: %s needs a value\n", a)
				return 2
			}
			i++
			specPath = args[i]
		default:
			if into == nil {
				fmt.Fprintf(stderr, "mlbench compare: unexpected %q (want -base DIR... -head DIR...)\n", a)
				return 2
			}
			*into = append(*into, a)
		}
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(stderr, "mlbench compare: need -base DIR... and -head DIR...")
		return 2
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench compare:", err)
		return 1
	}
	ok, err := bench.Compare(stdout, spec, base, head)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench compare:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// baseline parses `baseline [-spec FILE] DIR...` and prints the summary.
func baseline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlbench baseline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "mlbench baseline: need result directories")
		return 2
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "mlbench baseline:", err)
		return 1
	}
	doc, err := bench.Baseline(spec, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "mlbench baseline:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "mlbench baseline:", err)
		return 1
	}
	return 0
}
