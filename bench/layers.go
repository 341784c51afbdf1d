package bench

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/model"
	"repro/internal/model/moody"
	"repro/internal/obs"
	"repro/internal/obs/sidecar"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
)

// Package-level sinks keep the compiler from dropping measured calls.
var (
	floatSink float64
	intSink   int
	seedSink  rng.Seed
)

// layerRun measures the per-layer micro-benchmarks: each times calls
// into one layer's public functions, in batches sized to last about
// batch, and reports the median of reps batches.
type layerRun struct {
	seed  rng.Seed
	rand  *rand.Rand
	reps  int
	batch time.Duration
	tiny  bool
	out   map[string]Metric
	// cal is the calibration kernel's time after the last timeOp, which
	// the next one takes as its time before.
	cal float64
}

// timeOp stores the median over reps batches of the time per call of
// op(n)/n, in unit (scale converts nanoseconds to it), under name, and
// returns it. Like the end-to-end times, it is expressed at the
// reference machine speed, by the calibration kernel timed before and
// after the batches.
func (l *layerRun) timeOp(name, unit string, scale float64, reps int, batch time.Duration, op func(n int) error) (float64, error) {
	before := l.cal
	if before == 0 {
		before = calibrate(l.tiny)
	}
	n := 1
	for {
		t := time.Now()
		if err := op(n); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t)
		if d >= batch/4 {
			n = max(1, int(float64(n)*float64(batch)/float64(d)))
			break
		}
		n *= 4
	}
	samples := make([]float64, reps)
	for i := range samples {
		t := time.Now()
		if err := op(n); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		samples[i] = float64(time.Since(t)) / float64(n) * scale
	}
	l.cal = calibrate(l.tiny)
	v := median(samples) * calRefS / ((before + l.cal) / 2)
	l.out[name] = Metric{Value: v, Unit: unit, N: reps}
	return v, nil
}

// ns times a nanosecond-scale operation.
func (l *layerRun) ns(name string, op func(n int) error) (float64, error) {
	return l.timeOp(name, "ns", 1, l.reps, l.batch, op)
}

// namedOp is one micro-benchmark: op(n) makes n calls.
type namedOp struct {
	name string
	op   func(n int) error
}

// nsAll times each nanosecond-scale operation in turn.
func (l *layerRun) nsAll(ops []namedOp) error {
	for _, o := range ops {
		if _, err := l.ns(o.name, o.op); err != nil {
			return err
		}
	}
	return nil
}

func (l *layerRun) set(name, unit string, v float64, n int) {
	l.out[name] = Metric{Value: v, Unit: unit, N: n}
}

// Layers runs every per-layer micro-benchmark and the configuration-axis
// runs, with inputs drawn from seed. It returns the metrics and the axis
// table in markdown.
func Layers(seed uint64, tiny bool) (map[string]Metric, string, error) {
	l := &layerRun{
		seed: rng.Campaign(seed, "mlbench-layers"), reps: 5, batch: 10 * time.Millisecond,
		tiny: tiny, out: map[string]Metric{},
	}
	if tiny {
		l.reps, l.batch = 1, time.Millisecond
	}
	l.rand = l.seed.Rand()
	for _, f := range []func() error{l.rngDistEventq, l.engine, l.sinks, l.statsObs, l.models, l.sweeps} {
		if err := f(); err != nil {
			return nil, "", err
		}
	}
	table, err := l.configAxes()
	if err != nil {
		return nil, "", err
	}
	return l.out, table, nil
}

func (l *layerRun) rngDistEventq() error {
	s, r := l.seed, l.rand
	d4 := mustSystem("D4")
	exp, err := dist.NewExponential(d4.Lambda())
	if err != nil {
		return err
	}
	rates, err := d4.Rates()
	if err != nil {
		return err
	}
	picker := dist.NewSeverityPicker(rates)
	if err := l.nsAll([]namedOp{
		{"rng.trial_seed_ns", func(n int) error {
			for i := 0; i < n; i++ {
				seedSink = s.Trial(i)
			}
			return nil
		}},
		{"rng.draw_ns", func(n int) error {
			for i := 0; i < n; i++ {
				floatSink += r.Float64()
			}
			return nil
		}},
		{"dist.exp_sample_ns", func(n int) error {
			for i := 0; i < n; i++ {
				floatSink += exp.Sample(r)
			}
			return nil
		}},
		{"dist.severity_pick_ns", func(n int) error {
			for i := 0; i < n; i++ {
				intSink += picker.Pick(r)
			}
			return nil
		}},
		{"dist.trunc_exp_ns", func(n int) error {
			for i := 0; i < n; i++ {
				floatSink += dist.TruncExp(0.05+float64(i&1023)*0.01, d4.Lambda())
			}
			return nil
		}},
	}); err != nil {
		return err
	}

	offsets := make([]float64, 1024)
	for i := range offsets {
		offsets[i] = r.Float64()
	}
	for _, depth := range []int{4, 64} {
		var q eventq.Queue
		for i := 0; i < depth; i++ {
			q.Schedule(offsets[i], 0, i)
		}
		if _, err := l.ns(fmt.Sprintf("eventq.schedule_pop_ns.d%d", depth), func(n int) error {
			for i := 0; i < n; i++ {
				ev, err := q.Pop()
				if err != nil {
					return err
				}
				q.Schedule(ev.Time+offsets[i&1023], ev.Kind, ev.Data)
			}
			return nil
		}); err != nil {
			return err
		}
		if depth == 64 {
			// One Schedule plus the Cancel of that event, at depth 64.
			if _, err := l.ns("eventq.cancel_ns", func(n int) error {
				for i := 0; i < n; i++ {
					if !q.Cancel(q.Schedule(offsets[i&1023], 0, 0)) {
						return fmt.Errorf("cancel of a pending event failed")
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// eventCounter counts the events of the trials it observes.
type eventCounter struct{ n int }

func (c *eventCounter) Observe(sim.Event) { c.n++ }

func (l *layerRun) engine() error {
	d4 := mustSystem("D4")
	counted := 200
	if l.tiny {
		counted = 16
	}
	trials := l.seed.Scenario("engine")
	for _, c := range []struct {
		label string
		scn   sim.Scenario
	}{
		{"heavy", sim.Scenario{System: d4, Plan: heavyPlan}},
		{"light", sim.Scenario{System: lightSystem(), Plan: lightPlan}},
	} {
		eng, err := sim.NewEngine(c.scn)
		if err != nil {
			return err
		}
		next := 0
		trialNS, err := l.ns("sim.trial_ns."+c.label, func(n int) error {
			for i := 0; i < n; i++ {
				r, err := eng.Run(trials.Trial(next))
				if err != nil {
					return err
				}
				next++
				floatSink += r.Efficiency
			}
			return nil
		})
		if err != nil {
			return err
		}
		var events eventCounter
		eng.Observe(&events)
		for i := 0; i < counted; i++ {
			if _, err := eng.Run(trials.Trial(i)); err != nil {
				return err
			}
		}
		perTrial := float64(events.n) / float64(counted)
		l.set("sim.events_per_trial."+c.label, "count", perTrial, counted)
		if c.label != "heavy" {
			continue
		}
		l.set("sim.event_ns.heavy", "ns", trialNS/perTrial, l.reps)
		// Allocations of a whole campaign — engines, runner and the
		// default exact sink — per trial.
		camp := sim.Campaign{Scenario: c.scn, Trials: counted, Seed: trials, Workers: workers}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := camp.Run(); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		l.set("sim.campaign_allocs_per_trial.heavy", "count", float64(after.Mallocs-before.Mallocs)/float64(counted), counted)
	}
	return nil
}

// sinks times the campaign sinks on recorded trial results: Consume per
// trial, Merge per 8-trial block (the runner's default block), and the
// stream sink's checkpoint state.
func (l *layerRun) sinks() error {
	block, err := l.recordTrials(sim.Scenario{System: mustSystem("D4"), Plan: heavyPlan}, sim.DefaultBlock)
	if err != nil {
		return err
	}
	blocks := 2000
	if l.tiny {
		blocks = 10
	}
	for _, kind := range []string{"exact", "stream"} {
		var consume, merge []float64
		cal := calibrate(l.tiny)
		for rep := 0; rep < l.reps; rep++ {
			sink, err := sim.NewSink(kind)
			if err != nil {
				return err
			}
			shards := make([]sim.SinkShard, blocks)
			t := time.Now()
			for b := range shards {
				sh := sink.Shard()
				for k := range block {
					sh.Consume(b*len(block)+k, &block[k])
				}
				shards[b] = sh
			}
			consume = append(consume, float64(time.Since(t))/float64(blocks*len(block)))
			t = time.Now()
			for _, sh := range shards {
				if err := sink.Merge(sh); err != nil {
					return err
				}
			}
			merge = append(merge, float64(time.Since(t))/float64(blocks))
		}
		scale := calRefS / ((cal + calibrate(l.tiny)) / 2)
		l.set("sim.sink_consume_ns."+kind, "ns", median(consume)*scale, l.reps)
		l.set("sim.sink_merge_ns."+kind, "ns", median(merge)*scale, l.reps)
	}

	light, err := l.recordTrials(sim.Scenario{System: lightSystem(), Plan: lightPlan}, 1000)
	if err != nil {
		return err
	}
	stream := sim.NewStreamSink()
	sh := stream.Shard()
	for i := 0; i < 10*len(light); i++ {
		sh.Consume(i, &light[i%len(light)])
	}
	if err := stream.Merge(sh); err != nil {
		return err
	}
	state, err := stream.MarshalState()
	if err != nil {
		return err
	}
	l.set("sim.sink_state_bytes.stream", "bytes", float64(len(state)), 1)
	_, err = l.timeOp("sim.sink_marshal_us.stream", "us", 1e-3, l.reps, l.batch, func(n int) error {
		for i := 0; i < n; i++ {
			b, err := stream.MarshalState()
			if err != nil {
				return err
			}
			intSink += len(b)
		}
		return nil
	})
	return err
}

// recordTrials runs n trials of scn and keeps copies of their results.
func (l *layerRun) recordTrials(scn sim.Scenario, n int) ([]sim.TrialResult, error) {
	eng, err := sim.NewEngine(scn)
	if err != nil {
		return nil, err
	}
	seeds := l.seed.Scenario("record")
	out := make([]sim.TrialResult, n)
	for i := range out {
		r, err := eng.Run(seeds.Trial(i))
		if err != nil {
			return nil, err
		}
		r.Failures = append([]int(nil), r.Failures...) // engine scratch
		out[i] = r
	}
	return out, nil
}

func mustSystem(name string) *system.System {
	s, err := system.ByName(name)
	if err != nil {
		panic(err) // Table I names are constants of this package
	}
	return s
}

func (l *layerRun) statsObs() error {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 0.3 + 0.7*l.rand.Float64()
	}
	sk := stats.NewSketch()
	h := obs.NewHistogram()
	a, b := stats.NewSketch(), stats.NewSketch()
	for i, v := range vals {
		a.Observe(v)
		b.Observe(vals[(i*7)&1023] / 2)
	}
	return l.nsAll([]namedOp{
		{"stats.sketch_observe_ns", func(n int) error {
			for i := 0; i < n; i++ {
				sk.Observe(vals[i&1023])
			}
			return nil
		}},
		{"stats.sketch_merge_ns", func(n int) error {
			for i := 0; i < n; i++ {
				if err := a.Merge(b); err != nil {
					return err
				}
			}
			return nil
		}},
		{"obs.histogram_observe_ns", func(n int) error {
			for i := 0; i < n; i++ {
				h.Observe(vals[i&1023])
			}
			return nil
		}},
	})
}

// models times one prediction per technique on the four-level system B,
// or on D4 where the technique plans fewer levels, and one exact Markov
// period solve.
func (l *layerRun) models() error {
	b, d4 := mustSystem("B"), mustSystem("D4")
	bPlan := pattern.Plan{Tau0: 2, Counts: []int{2, 1, 3}, Levels: []int{1, 2, 3, 4}}
	for _, name := range coldTechniques {
		info, err := model.Describe(name)
		if err != nil {
			return err
		}
		sys, plan := b, bPlan
		switch {
		case info.MaxLevels == 1:
			sys, plan = d4, pattern.Plan{Tau0: 5.7, Levels: []int{2}}
		case info.MaxLevels != 0 && info.MaxLevels < b.NumLevels():
			sys, plan = d4, heavyPlan
		}
		tech, err := model.New(name)
		if err != nil {
			return err
		}
		if _, err := l.ns("model.predict_ns."+name, func(n int) error {
			for i := 0; i < n; i++ {
				p, err := tech.Predict(sys, plan)
				if err != nil {
					return err
				}
				floatSink += p.Efficiency
			}
			return nil
		}); err != nil {
			return err
		}
	}
	chain, err := moody.BuildChain(b, pattern.Plan{Tau0: 3, Counts: []int{1, 1, 15}, Levels: []int{1, 2, 3, 4}})
	if err != nil {
		return err
	}
	_, err = l.timeOp("markov.period_solve_us", "us", 1e-3, l.reps, l.batch, func(n int) error {
		for i := 0; i < n; i++ {
			t, err := chain.ExpectedPeriodTime()
			if err != nil {
				return err
			}
			floatSink += t
		}
		return nil
	})
	return err
}

// sweeps times full optimizer sweeps at the benchmark's worker count
// and reads the sweep counters of the last one.
func (l *layerRun) sweeps() error {
	for _, c := range []struct{ tech, sys string }{{"dauwe", "B"}, {"di", "B"}, {"moody", "B"}, {"dauwe", "D4"}} {
		sys := mustSystem(c.sys)
		var reg *obs.Registry
		// A sweep takes up to a second; three batches of at least 50 ms.
		reps, batch := min(3, l.reps), 50*time.Millisecond
		if l.tiny {
			batch = time.Nanosecond
		}
		if _, err := l.timeOp(fmt.Sprintf("optimize.sweep_ms.%s.%s", c.tech, c.sys), "ms", 1e-6, reps, batch, func(n int) error {
			for i := 0; i < n; i++ {
				tech, err := model.New(c.tech)
				if err != nil {
					return err
				}
				sw, ok := tech.(interface {
					SetSweepWorkers(int)
					SetSweepMetrics(*obs.Registry)
					SetSweepGrid(int, []int)
				})
				if !ok {
					return fmt.Errorf("technique %s has no instrumented sweep", c.tech)
				}
				reg = obs.NewRegistry()
				sw.SetSweepWorkers(workers)
				sw.SetSweepMetrics(reg)
				if l.tiny {
					sw.SetSweepGrid(4, []int{0, 1, 2})
				}
				if _, _, err := tech.Optimize(sys); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if c.sys == "B" && c.tech != "di" {
			snap := reg.Snapshot()
			l.set(fmt.Sprintf("optimize.evals_per_sweep.%s.B", c.tech), "count", float64(snap.Counter("opt_evaluations_total")), 1)
			// Only Moody's sweep has a lower bound to prune with.
			if c.tech == "moody" {
				l.set("optimize.pruned_frac.moody.B", "frac",
					float64(snap.Counter("opt_pruned_total"))/float64(snap.Counter("opt_candidates_total")), 1)
			}
		}
	}
	return nil
}

// axisConfig is one campaign configuration of the axis table.
type axisConfig struct {
	axis, setting string
	// ref is the index of the configuration this one is compared with.
	ref int
	run func() error
}

// configAxes runs reduced campaign-heavy and campaign-light campaigns
// across configuration axes — workers 1 vs 2, exact vs stream sink,
// checkpoint off vs on, observers off vs on — in interleaved rounds, and
// reports the derived per-layer metrics plus a markdown table.
func (l *layerRun) configAxes() (string, error) {
	heavyN, lightN, rounds := 1000, 20000, 3
	if l.tiny {
		heavyN, lightN, rounds = 80, 1000, 1
	}
	tmp, err := os.MkdirTemp("", "mlbench-axes-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	d4 := mustSystem("D4")
	heavy := func(w int) sim.Campaign {
		return sim.Campaign{Scenario: sim.Scenario{System: d4, Plan: heavyPlan}, Trials: heavyN,
			Seed: l.seed.Scenario("axis-heavy"), Workers: w}
	}
	light := func() sim.Campaign {
		return sim.Campaign{Scenario: sim.Scenario{System: lightSystem(), Plan: lightPlan}, Trials: lightN,
			Seed: l.seed.Scenario("axis-light"), Workers: lightWorkers, Sink: sim.NewStreamSink()}
	}
	run := func(c sim.Campaign) error {
		_, err := c.Run()
		return err
	}
	configs := []axisConfig{
		{"workers", "1", 0, func() error { return run(heavy(1)) }},
		{"workers", "2", 0, func() error { return run(heavy(workers)) }},
		{"sink", "stream (exact is workers 2)", 1, func() error {
			c := heavy(workers)
			c.Sink = sim.NewStreamSink()
			return run(c)
		}},
		{"observers", "simmetrics", 1, func() error {
			c := heavy(workers)
			pool := &obs.Pool{}
			c.ObserverFactory = pool.Observer
			if err := run(c); err != nil {
				return err
			}
			_, err := pool.Merged()
			return err
		}},
		{"observers", "spans+flight", 1, func() error {
			c := heavy(workers)
			tracers, flight := &obs.TracerPool{}, &trace.FlightPool{}
			c.ObserverFactory = func(w int) sim.Observer {
				return obs.Multi(obs.TrialSpans(tracers.Shard()), flight.Observer(w))
			}
			c.TrialStart = flight.TrialStart
			return run(c)
		}},
		{"observers", "sidecar", 1, func() error {
			c := heavy(workers)
			sw := sidecar.NewWriter(filepath.Join(tmp, "axis"+sidecar.Suffix), sidecar.Meta{RunID: "mlbench", Label: "axis"})
			c.Progress = sw.Update
			if err := run(c); err != nil {
				return err
			}
			return sw.Err()
		}},
		{"checkpoint", "off", 6, func() error { return run(light()) }},
		{"checkpoint", "on", 6, func() error {
			c := light()
			c.Checkpoint = &sim.CheckpointConfig{Path: filepath.Join(tmp, "axis.ckpt"), Interval: lightN / lightCheckpoints}
			return run(c)
		}},
	}
	// walls are at the reference machine speed (the calibration kernel is
	// timed before each run); cpuPct is CPU time over raw wall time.
	walls := make([][]float64, len(configs))
	cpuPct := make([][]float64, len(configs))
	for round := 0; round < rounds; round++ {
		for i, c := range configs {
			runtime.GC() // so no run pays for the previous run's garbage
			cal := calibrate(l.tiny)
			cpu0 := selfCPU()
			t := time.Now()
			if err := c.run(); err != nil {
				return "", fmt.Errorf("axis %s=%s: %w", c.axis, c.setting, err)
			}
			wall := time.Since(t).Seconds()
			walls[i] = append(walls[i], wall*calRefS/cal)
			cpuPct[i] = append(cpuPct[i], (selfCPU()-cpu0)/wall*100)
		}
	}
	wall := make([]float64, len(configs))
	for i := range configs {
		wall[i] = median(walls[i])
	}
	frac := func(name string, v float64) { l.set(name, "frac", v, rounds) }
	frac("sim.scaling_eff_w2", wall[0]/(workers*wall[1]))
	l.set("sim.cpu_pct_w2", "%", median(cpuPct[1]), rounds)
	l.set("sim.exact_over_stream_wall", "ratio", wall[1]/wall[2], rounds)
	frac("obs.simmetrics_overhead_frac", wall[3]/wall[1]-1)
	frac("obs.spans_flight_overhead_frac", wall[4]/wall[1]-1)
	frac("obs.sidecar_overhead_frac", wall[5]/wall[1]-1)
	frac("sim.checkpoint_overhead_frac", wall[7]/wall[6]-1)

	var b strings.Builder
	fmt.Fprintf(&b, "Campaigns: campaign-heavy at %d trials, campaign-light at %d trials; median of %d interleaved rounds; wall at the reference machine speed.\n\n", heavyN, lightN, rounds)
	b.WriteString("| axis | setting | wall ms | vs reference | CPU % |\n|---|---|---:|---|---:|\n")
	for i, c := range configs {
		vs := "reference"
		if c.ref != i {
			vs = fmt.Sprintf("%.3f× %s=%s", wall[i]/wall[c.ref], configs[c.ref].axis, configs[c.ref].setting)
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f | %s | %.0f |\n", c.axis, c.setting, wall[i]*1000, vs, median(cpuPct[i]))
	}
	return b.String(), nil
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
