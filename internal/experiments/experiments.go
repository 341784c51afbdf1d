// Package experiments reproduces every table and figure of the paper's
// evaluation (Section IV): Table I's test-system catalog and Figures 2–6.
// Each experiment optimizes checkpoint intervals with the techniques
// under comparison, simulates the optimized plans over hundreds of
// randomized trials, and returns the structured rows/series the paper
// reports (efficiency bars with standard deviations, model-prediction
// diamonds, time breakdowns, prediction errors).
package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/sidecar"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"

	// The five technique packages register themselves; Moody's concrete
	// type is also needed for its Fast-mode period bound.
	_ "repro/internal/model/benoit"
	_ "repro/internal/model/daly"
	_ "repro/internal/model/dauwe"
	_ "repro/internal/model/di"
	"repro/internal/model/moody"
)

// Options tunes an experiment run. The zero value reproduces the paper's
// setup (at the paper's trial counts); benchmarks shrink Trials to keep
// wall time sane.
type Options struct {
	// Trials overrides the per-scenario trial count (0 = the paper's:
	// 200, or 400 for Figure 5).
	Trials int
	// Seed is the campaign base seed (0 = 1).
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS): how many cores the
	// run may use. The figure grids (Figures 2–5) and the ablations keep
	// up to Workers rows in flight, and each row runs its campaigns with
	// Workers workers; results are identical for every value (DESIGN.md
	// §2.15).
	Workers int
	// MaxWallFactor caps each trial at this multiple of T_B
	// (0 = 150; only the sub-1 %-efficiency scenarios ever hit it).
	MaxWallFactor float64
	// Progress, when non-nil, receives one line per completed scenario.
	// Lines arrive in row order, exactly as a sequential run prints them,
	// even when rows run concurrently; calls come from the goroutine that
	// called the experiment.
	Progress func(string)
	// Fast lowers every optimizer's grid resolution. Benchmarks and
	// smoke tests use it; paper-scale runs leave it false.
	Fast bool
	// Metrics, when non-nil, is a global telemetry sink: every campaign
	// runs with per-worker obs.SimMetrics shards, which are merged into
	// the per-cell metrics and folded into this sink. A figure grid folds
	// each row into a private sink first and merges the rows in row
	// order.
	Metrics *obs.SimMetrics
	// TrialDone, when non-nil, is called once per simulated trial across
	// every scenario; it must be safe for concurrent use (progress
	// reporting hook).
	TrialDone func()
	// Spans, when non-nil, receives the run's span tree: each cell
	// records "cell" → {"optimize", "campaign"}, the campaign splits
	// into "setup"/"run"/"merge", per-worker trial spans are grafted
	// under "run", and instrumented optimizer sweeps graft their
	// "sweep"/"order"/"refine" spans under "optimize". The tracer is
	// used from the calling goroutine only (parallel stages, figure-grid
	// rows included, record into private shards that are merged in), so
	// one experiment run per tracer.
	Spans *obs.Tracer
	// TrialStats, when non-nil, receives per-trial streaming estimators
	// that are safe to snapshot concurrently mid-run (the live /metrics
	// path): "trial_efficiency" and "trial_walltime_minutes".
	TrialStats *obs.StreamSet
	// CRN runs each experiment row's techniques under common random
	// numbers: every technique in a row shares one scenario seed, so
	// trial i of every technique faces the same failure realization and
	// technique differences become paired differences (see DESIGN.md
	// §2.11). Each technique's marginal campaign result stays bitwise
	// identical to a standalone campaign with the shared seed; only the
	// significance machinery changes (paired t instead of unpaired
	// Welch). Row results gain Paired comparisons.
	CRN bool
	// CITarget, with CRN, enables sequential stopping: each row's
	// campaigns advance in batches of 64 trials per arm until every
	// pairwise paired 95% CI half-width on mean efficiency is at most
	// CITarget (or the trial budget runs out). Zero disables stopping; a
	// negative or non-finite value, or a CITarget set without CRN, is an
	// error. When Metrics is set, the counters vr_trials_run_total and
	// vr_trials_saved_total record the per-arm trials run and the budget
	// the stopping rule left unrun.
	CITarget float64
	// Stream runs every campaign through sim.NewStreamSink: constant
	// memory at any trial count, sketch-backed summaries, no per-trial
	// Efficiencies. An error under CRN: paired comparisons read the
	// exact per-trial results.
	Stream bool
	// CheckpointDir, when non-empty, checkpoints every campaign into
	// one file per (experiment, system, technique) cell under this
	// directory, with a progress sidecar beside each; under CRN, each
	// technique's arm is such a cell. Shard runs and merges keep their
	// shard files there instead (see Shards).
	CheckpointDir string
	// CheckpointInterval is the per-campaign checkpoint interval in
	// trials (0 = every 1/8 of the campaign).
	CheckpointInterval int
	// Resume, with CheckpointDir, resumes each cell's campaign from its
	// checkpoint file when present.
	Resume bool
	// Events, when non-nil, receives structured campaign lifecycle
	// events — start, checkpoint, resume, terminal state — as JSON log
	// lines (see obs.EventLog), each labelled with its cell. The CLIs
	// enable it with -log-json.
	Events *obs.EventLog
	// Check runs every trial under the protocol-invariant checker
	// (internal/conformance). A violation fails the cell; otherwise
	// Cell.Conformance counts what was checked. The checker only
	// observes, so results are bitwise identical to unchecked runs.
	Check bool
	// Flight, when non-nil, runs a flight recorder on every campaign and
	// collects its streams, those of a failed campaign included. With
	// Check, the streams of trials that broke an invariant are held.
	Flight *FlightLog
	// Shards, when positive, runs each campaign as shard Shard of Shards
	// (sim.Campaign.RunShard): the shard file goes under CheckpointDir,
	// Cell.ShardFile names it, and Cell.Sim stays zero. With
	// MergeShards, each campaign instead merges its Shards shard files
	// from CheckpointDir into Cell.Sim. Not with CRN: pairing merged
	// shards is not supported.
	Shard, Shards int
	MergeShards   bool
}

// fastCounts is the reduced N_i candidate set used in Fast mode.
var fastCounts = []int{0, 1, 2, 4, 8, 16, 32}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o Options) wallFactor() float64 {
	if o.MaxWallFactor > 0 {
		return o.MaxWallFactor
	}
	return 150
}

func (o Options) log(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Cell is one (system, technique) evaluation: the technique's optimized
// plan and prediction, plus the simulated ground truth.
type Cell struct {
	System    string
	Technique string
	Plan      pattern.Plan
	Predicted model.Prediction
	Sim       sim.CampaignResult
	// Metrics holds the campaign's merged simulator telemetry when
	// Options enabled collection (nil otherwise).
	Metrics *obs.SimMetrics
	// Conformance counts what the invariant checker verified under
	// Options.Check (nil otherwise).
	Conformance *Conformance `json:"-"`
	// ShardFile is the shard file a shard run wrote (Options.Shards).
	ShardFile string `json:"-"`
}

// Conformance counts the trials and events the invariant checker
// verified in one campaign.
type Conformance struct {
	Trials, Events int
}

// label names the cell's campaign: its checkpoint, shard and sidecar
// file names and the label on its events. An ablation's campaigns put
// their arm (retry, escalate, ...) in place of the technique; the
// sensitivity sweep's go by their system.
func (c *Cell) label() string {
	if c.Technique == "" {
		return c.System
	}
	return c.System + "-" + c.Technique
}

// FlightLog collects the flight-recorder streams of every campaign run
// with Options.Flight, each stream labelled with its cell's technique,
// and the count of holds their recorders dropped at the cap. It is safe
// for concurrent use: figure rows run at once.
type FlightLog struct {
	mu      sync.Mutex
	streams []trace.FlightStream
	dropped int
}

// add appends one campaign's streams under label and counts the holds
// its recorders dropped.
func (l *FlightLog) add(label string, p *trace.FlightPool) {
	streams := p.Streams()
	for i := range streams {
		streams[i].Label = label
	}
	l.mu.Lock()
	l.streams = append(l.streams, streams...)
	l.dropped += p.Dropped()
	l.mu.Unlock()
}

// Dump returns what the log has collected so far, campaign by campaign,
// as a flight dump stamped with runID.
func (l *FlightLog) Dump(runID string) trace.FlightDump {
	l.mu.Lock()
	defer l.mu.Unlock()
	return trace.FlightDump{RunID: runID, Dropped: l.dropped, Streams: slices.Clone(l.streams)}
}

// PredictionError returns predicted minus simulated efficiency (the
// Figure 6 metric).
func (c *Cell) PredictionError() float64 {
	return c.Predicted.Efficiency - c.Sim.Efficiency.Mean
}

// newTechnique instantiates a technique, optionally dialing its search
// resolution down for Fast mode.
func newTechnique(name string, fast bool) (model.Technique, error) {
	tech, err := model.New(name)
	if err != nil {
		return nil, err
	}
	if t, ok := tech.(optimize.Tunable); ok && fast {
		t.SweepSettings().SetSweepGrid(24, fastCounts)
		// Markov solves cost more per candidate than the other objectives.
		if m, ok := tech.(*moody.Technique); ok {
			m.Tau0Points, m.MaxPeriodIntervals = 20, 128
		}
	}
	return tech, nil
}

// cellPath is the path, without its extension, of a campaign's
// checkpoint or shard files under CheckpointDir. The campaign seed
// words disambiguate same-named cells across experiments (fig2 vs fig3
// share system/technique names but never seeds), so a stale file can at
// worst fail header validation, not silently resume the wrong cell.
func (o Options) cellPath(camp *sim.Campaign, label string) string {
	hi, lo := camp.Seed.Words()
	return filepath.Join(o.CheckpointDir, fmt.Sprintf("%s-%08x", sanitizeCell(label), (hi^lo)&0xffffffff))
}

// shardPath is the file of the campaign's shard k of Shards.
func (o Options) shardPath(camp *sim.Campaign, label string, k int) string {
	return fmt.Sprintf("%s.shard%dof%d.json", o.cellPath(camp, label), k, o.Shards)
}

// applySink wires the Options' streaming/checkpoint choices into one
// campaign. label names the cell and becomes the checkpoint filename.
// A shard run takes no checkpoint: its shard file is the checkpoint.
func (o Options) applySink(camp *sim.Campaign, label string) {
	if o.Stream && camp.Sink == nil {
		camp.Sink = sim.NewStreamSink()
	}
	if o.CheckpointDir == "" || o.Shards > 0 || camp.Checkpoint != nil {
		return
	}
	interval := o.CheckpointInterval
	if interval == 0 {
		interval = camp.Trials / 8
		if interval < 1 {
			interval = 1
		}
	}
	camp.Checkpoint = &sim.CheckpointConfig{
		Path:     o.cellPath(camp, label) + ".ckpt",
		Interval: interval,
		Resume:   o.Resume,
	}
}

// applySidecar keeps a progress sidecar (sidecar.Suffix) next to the
// campaign's checkpoint or shard file and returns its writer, or nil
// when the campaign writes no such file; a merge only reads shard
// files, whose runs keep their sidecars. The cell's config digest
// leaves out the shard index, so all shards of one cell share it. It
// doubles as the run ID unless an event log is attached, whose run ID
// the sidecar then carries to correlate with the log's records.
func (o Options) applySidecar(camp *sim.Campaign, label string) *sidecar.Writer {
	path, shard := "", 0
	switch {
	case o.MergeShards:
		return nil
	case o.Shards > 0:
		path, shard = o.shardPath(camp, label, o.Shard), o.Shard
	case camp.Checkpoint != nil:
		path = camp.Checkpoint.Path
	default:
		return nil
	}
	sinkKind := "exact"
	if o.Stream {
		sinkKind = "stream"
	}
	hi, lo := camp.Seed.Words()
	digest := sidecar.ConfigDigest(label, strconv.FormatUint(hi, 16), strconv.FormatUint(lo, 16),
		strconv.Itoa(camp.Trials), strconv.Itoa(camp.Block), sinkKind)
	runID := o.Events.RunID()
	if runID == "" {
		runID = digest
	}
	w := sidecar.NewWriter(path+sidecar.Suffix, sidecar.Meta{
		RunID: runID, ConfigDigest: digest, Label: label, Shard: shard, Of: o.Shards,
	})
	if o.TrialStats != nil {
		w.SetLiveStats(o.TrialStats.Snapshots)
	}
	camp.Progress = w.Update
	return w
}

// applyEvents chains the structured-event emitter onto the campaign's
// Progress hook (see obs.EventLog.CampaignProgress), composing with any
// hook already installed. Every record carries label, so the records of
// cells running at once group by cell.
func (o Options) applyEvents(camp *sim.Campaign, label string) {
	ckPath, shard, of := "", 0, 1
	if camp.Checkpoint != nil {
		ckPath = camp.Checkpoint.Path
	}
	if o.Shards > 0 {
		shard, of = o.Shard, o.Shards
	}
	camp.Progress = o.Events.WithLabel(label).CampaignProgress(camp.Progress, ckPath, shard, of)
}

// sanitizeCell maps a cell label to a safe filename.
func sanitizeCell(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, label)
}

// runCampaign runs the campaign of cell c, wired by simulate, in the
// Options' run mode: the whole campaign (Run), one shard of it
// (RunShard), or a merge of its shard files (MergeShards). It returns c
// with the result and whatever the wiring collected.
func (o Options) runCampaign(camp sim.Campaign, c Cell) (Cell, error) {
	if !o.CRN && o.CITarget != 0 {
		return c, errors.New("experiments: CITarget needs CRN (sequential stopping is defined on paired CIs)")
	}
	// sim checks the shard index and that a merge has files to merge.
	if o.Shards < 0 || (o.Shards > 0 || o.MergeShards) && o.CheckpointDir == "" {
		return c, fmt.Errorf("experiments: %d shards: want a non-negative count and a CheckpointDir for the shard files", o.Shards)
	}
	cells := []Cell{c}
	err := o.simulate(cells, []sim.Campaign{camp}, func(camps []sim.Campaign) (err error) {
		camp, c := &camps[0], &cells[0]
		switch {
		case o.MergeShards:
			paths := make([]string, o.Shards)
			for k := range paths {
				paths[k] = o.shardPath(camp, c.label(), k)
			}
			if c.Sim, err = camp.MergeShards(paths...); err == nil {
				o.Events.WithLabel(c.label()).ShardMerge(paths, camp.Trials)
			}
		case o.Shards > 0:
			c.ShardFile = o.shardPath(camp, c.label(), o.Shard)
			err = camp.RunShard(c.ShardFile, o.Shard, o.Shards)
		default:
			c.Sim, err = camp.Run()
		}
		return err
	})
	return cells[0], err
}

// campaignHooks are the per-campaign pools and progress sidecar that
// simulate installs before a run and reads back after it.
type campaignHooks struct {
	metrics *obs.Pool
	checker *conformance.Pool
	flight  *trace.FlightPool
	sidecar *sidecar.Writer
}

// simulate wires the Options' campaign features into each of camps —
// the sink and checkpoint (applySink), a progress sidecar
// (applySidecar), lifecycle events (applyEvents), the per-trial hooks,
// and the observers: the invariant checker, the flight recorder, a
// metrics pool and trial spans — then calls run on the wired campaigns
// inside one "campaign" span split into "setup"/"run"/"merge". cells[i]
// names camps[i] and receives what its wiring collected. The merge
// stage grafts the per-worker trial spans under "run", hands the flight
// streams to Options.Flight (also when run failed), and then, campaign
// by campaign, fails on a checker violation or records the checker's
// counts and merges the metrics pool into the cell, the global sink and
// the sidecar's last write. Plain cells, shard runs and CRN arms all
// run through it, so every feature reaches each of them.
func (o Options) simulate(cells []Cell, camps []sim.Campaign, run func([]sim.Campaign) error) error {
	campSpan := o.Spans.Start("campaign")
	defer campSpan.End()
	setupSpan := o.Spans.Start("setup")
	var tracers *obs.TracerPool
	if o.Spans != nil {
		tracers = &obs.TracerPool{}
	}
	hooks := make([]campaignHooks, len(camps))
	for i := range camps {
		if err := o.wire(&camps[i], cells[i].label(), &hooks[i], tracers); err != nil {
			setupSpan.End()
			return err
		}
	}
	setupSpan.End()

	runSpan := o.Spans.Start("run")
	err := run(camps)
	runSpan.End()

	mergeSpan := o.Spans.Start("merge")
	defer mergeSpan.End()
	if tracers != nil {
		// Worker trial spans appear under the stage that ran them.
		runSpan.Adopt(tracers.Merged())
	}
	for i, h := range hooks {
		if h.flight != nil {
			o.Flight.add(cells[i].Technique, h.flight)
		}
	}
	if err != nil {
		return err
	}
	for i := range hooks {
		if err := o.collect(&hooks[i], &cells[i]); err != nil {
			return err
		}
	}
	return nil
}

// wire installs one campaign's sink, sidecar, events, trial hook and
// observers, recording the pools and sidecar in h.
func (o Options) wire(camp *sim.Campaign, label string, h *campaignHooks, tracers *obs.TracerPool) error {
	o.applySink(camp, label)
	h.sidecar = o.applySidecar(camp, label)
	o.applyEvents(camp, label)
	camp.TrialDone = o.trialHook()
	if o.Check {
		var err error
		if h.checker, err = conformance.NewPool(camp.Scenario); err != nil {
			return fmt.Errorf("%s: conformance: %w", label, err)
		}
	}
	if o.Flight != nil {
		h.flight = &trace.FlightPool{}
		camp.TrialStart = h.flight.TrialStart
	}
	if o.Metrics != nil {
		h.metrics = &obs.Pool{}
	}
	if h.checker == nil && h.flight == nil && h.metrics == nil && tracers == nil {
		return nil
	}
	camp.ObserverFactory = func(worker int) sim.Observer {
		var list []sim.Observer
		var ck *conformance.Checker
		if h.checker != nil {
			ck = h.checker.Observer(worker).(*conformance.Checker)
			list = append(list, ck)
		}
		if h.flight != nil {
			rec := h.flight.Recorder(worker)
			if ck != nil {
				// The checker sees each event first, so its verdict is
				// current at the trial's terminal event: hold the streams
				// of trials that added violations.
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
		if h.metrics != nil {
			list = append(list, h.metrics.Observer(worker))
		}
		if tracers != nil {
			list = append(list, obs.TrialSpans(tracers.Shard()))
		}
		if len(list) == 1 {
			return list[0]
		}
		return obs.Multi(list...)
	}
	return nil
}

// collect reads one successful campaign's hooks back into its cell: the
// checker's verdict and counts, then the merged metrics (also into the
// global sink and the sidecar's last write).
func (o Options) collect(h *campaignHooks, c *Cell) error {
	if h.checker != nil {
		if err := h.checker.Err(); err != nil {
			return fmt.Errorf("%s: conformance: %w", c.label(), err)
		}
		c.Conformance = &Conformance{Trials: h.checker.Trials(), Events: h.checker.Events()}
	}
	if h.metrics != nil {
		m, err := h.metrics.Merged()
		if err == nil && o.Metrics != nil {
			err = o.Metrics.Merge(m)
		}
		if err != nil {
			return err
		}
		c.Metrics = m
		if h.sidecar != nil {
			// Worker-sharded registries merge only after the run, so they
			// join the sidecar that the final progress update wrote.
			snap := m.Snapshot()
			h.sidecar.SetRegistry(&snap)
		}
	}
	if h.sidecar != nil {
		// Sidecar I/O never fails a campaign; the event log reports it.
		if err := h.sidecar.Flush(); err != nil {
			o.Events.WithLabel(c.label()).Event("sidecar_error", "path", h.sidecar.Path(), "error", err.Error())
		}
	}
	return nil
}

// trialHook returns the per-trial telemetry callback shared by
// campaigns and CRN rows — a progress tick and the streaming trial
// stats — or nil when neither is on.
func (o Options) trialHook() func(sim.TrialResult) {
	if o.TrialDone == nil && o.TrialStats == nil {
		return nil
	}
	done := o.TrialDone
	var eff, wall *obs.StreamStat
	if o.TrialStats != nil {
		eff = o.TrialStats.Stat("trial_efficiency")
		wall = o.TrialStats.Stat("trial_walltime_minutes")
	}
	return func(r sim.TrialResult) {
		if eff != nil {
			eff.Observe(r.Efficiency)
			wall.Observe(r.WallTime)
		}
		if done != nil {
			done()
		}
	}
}

// optimizePlan runs one technique's optimizer for one system, with the
// Options' sweep telemetry and spans attached.
func optimizePlan(sys *system.System, techName string, opt Options) (pattern.Plan, model.Prediction, error) {
	tech, err := newTechnique(techName, opt.Fast)
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	var sweepSpans *obs.Tracer
	if t, ok := tech.(optimize.Tunable); ok {
		// A sweep feeds the global telemetry sink alongside the
		// simulator shards, and merges its per-worker span shards into a
		// private tracer, grafted under this cell's "optimize" span
		// afterwards.
		if opt.Metrics != nil {
			t.SweepSettings().SetSweepMetrics(opt.Metrics.Registry())
		}
		if opt.Spans != nil {
			sweepSpans = obs.NewTracer()
			t.SweepSettings().SetSweepSpans(sweepSpans)
		}
	}
	optSpan := opt.Spans.Start("optimize")
	plan, pred, err := tech.Optimize(sys)
	optSpan.End()
	optSpan.Adopt(sweepSpans)
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, fmt.Errorf("%s on %s: optimize: %w", techName, sys.Name, err)
	}
	return plan, pred, nil
}

// scenarioFor builds the simulation scenario for one optimized plan.
func (o Options) scenarioFor(sys *system.System, plan pattern.Plan) sim.Scenario {
	return sim.Scenario{
		System:        sys,
		Plan:          plan,
		Policy:        sim.RetryPolicy, // the paper's simulations use this for all techniques
		MaxWallFactor: o.wallFactor(),
	}
}

// Evaluate optimizes one technique for one system and, given trials,
// simulates the resulting plan on seed.Scenario(sys.Name + "/" +
// techName) with every campaign feature the Options turn on; seed is
// the caller's seed namespace (a figure's, or mlckpt's). With no trials
// the cell holds the plan and prediction alone.
func Evaluate(sys *system.System, techName string, trials int, seed rng.Seed, opt Options) (Cell, error) {
	cellSpan := opt.Spans.Start("cell")
	defer cellSpan.End()
	plan, pred, err := optimizePlan(sys, techName, opt)
	if err != nil {
		return Cell{}, err
	}
	c := Cell{System: sys.Name, Technique: techName, Plan: plan, Predicted: pred}
	if trials <= 0 {
		return c, nil
	}
	camp := sim.Campaign{
		Scenario: opt.scenarioFor(sys, plan),
		Trials:   trials,
		Seed:     seed.Scenario(sys.Name + "/" + techName),
		Workers:  opt.Workers,
	}
	if c, err = opt.runCampaign(camp, c); err != nil {
		return Cell{}, fmt.Errorf("%s on %s: simulate: %w", techName, sys.Name, err)
	}
	return c, nil
}

// evaluateRow evaluates every technique of one experiment row. Without
// CRN each technique runs its own independently seeded campaign (the
// historical layout) and the returned PairedResult is nil. With CRN the
// row runs as one pairedRow on the shared seed.Scenario(sys.Name) —
// trial i of every technique sees the same failure realization — and
// the row's paired comparisons ride back alongside the cells.
func evaluateRow(sys *system.System, techs []string, trials int, seed rng.Seed, opt Options) ([]Cell, *sim.PairedResult, error) {
	if opt.CRN {
		cells, paired, err := opt.pairedRow(sys, techs, trials, seed.Scenario(sys.Name), false)
		if err != nil {
			return nil, nil, fmt.Errorf("crn row %s: %w", sys.Name, err)
		}
		return cells, paired, nil
	}
	cells := make([]Cell, 0, len(techs))
	for _, tech := range techs {
		c, err := Evaluate(sys, tech, trials, seed, opt)
		if err != nil {
			return nil, nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil, nil
}

// pairedRow optimizes every technique on sys, each inside a "cell"
// span, then simulates the plans as the arms of one sim.PairedCampaign
// on the shared seed: each arm is the campaign Evaluate would run for
// the cell, seed aside, wired by simulate exactly as a plain cell is.
// CITarget drives sequential stopping. When Metrics is set,
// the counters vr_trials_run_total and vr_trials_saved_total record the
// per-arm trials run and the budget the stopping rule left unrun.
func (o Options) pairedRow(sys *system.System, techs []string, trials int, seed rng.Seed, controlVariates bool) ([]Cell, *sim.PairedResult, error) {
	if o.Shards != 0 || o.MergeShards {
		return nil, nil, errors.New("experiments: shard runs and merges cannot be paired under CRN")
	}
	cells := make([]Cell, len(techs))
	arms := make([]sim.Campaign, len(techs))
	for i, tech := range techs {
		cellSpan := o.Spans.Start("cell")
		plan, pred, err := optimizePlan(sys, tech, o)
		cellSpan.End()
		if err != nil {
			return nil, nil, err
		}
		cells[i] = Cell{System: sys.Name, Technique: tech, Plan: plan, Predicted: pred}
		arms[i] = sim.Campaign{Scenario: o.scenarioFor(sys, plan), Trials: trials, Seed: seed, Workers: o.Workers}
	}
	var res sim.PairedResult
	err := o.simulate(cells, arms, func(arms []sim.Campaign) (err error) {
		res, err = sim.PairedCampaign{
			Arms:            arms,
			TargetCI:        o.CITarget,
			ControlVariates: controlVariates,
		}.Run()
		if err == nil && o.Metrics != nil {
			reg := o.Metrics.Registry()
			reg.Counter("vr_trials_run_total").Add(uint64(res.TrialsRun * len(arms)))
			reg.Counter("vr_trials_saved_total").Add(uint64(res.TrialsSaved() * len(arms)))
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range cells {
		cells[i].Sim = res.Arms[i]
	}
	return cells, &res, nil
}

// Fig2Techniques are the five techniques of Figure 2, in plot order.
var Fig2Techniques = []string{"dauwe", "di", "moody", "benoit", "daly"}

// BestTechniques are the three techniques Figures 3–6 focus on.
var BestTechniques = []string{"dauwe", "di", "moody"}

// Fig2Result reproduces Figure 2: simulated efficiency (mean ± σ) and
// each technique's own prediction, for every Table I system.
type Fig2Result struct {
	Systems    []string
	Techniques []string
	// Cells indexed [system][technique].
	Cells [][]Cell
	// Paired holds each system row's CRN comparison (nil without
	// Options.CRN), index-aligned with Systems.
	Paired []*sim.PairedResult
}

// Fig2 runs the Figure 2 experiment.
func Fig2(opt Options) (*Fig2Result, error) {
	systems := system.TableI()
	out := &Fig2Result{Techniques: Fig2Techniques}
	for _, sys := range systems {
		out.Systems = append(out.Systems, sys.Name)
	}
	var err error
	out.Cells, out.Paired, err = evaluateGrid(opt, systems, Fig2Techniques, opt.trials(200), rng.Campaign(opt.seed(), "fig2"),
		func(ro Options, _ int, c *Cell) {
			ro.log("fig2 %s/%s: sim=%.3f±%.3f pred=%.3f plan=%v",
				c.System, c.Technique, c.Sim.Efficiency.Mean, c.Sim.Efficiency.Std, c.Predicted.Efficiency, c.Plan)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig3Result reproduces Figure 3: the percentage of application time
// spent in each event category, for the three best techniques on every
// Table I system.
type Fig3Result struct {
	Systems    []string
	Techniques []string
	// Cells indexed [system][technique]; Sim.BreakdownShare carries the
	// stacked percentages.
	Cells [][]Cell
}

// Fig3 runs the Figure 3 experiment.
func Fig3(opt Options) (*Fig3Result, error) {
	systems := system.TableI()
	out := &Fig3Result{Techniques: BestTechniques}
	for _, sys := range systems {
		out.Systems = append(out.Systems, sys.Name)
	}
	var err error
	out.Cells, _, err = evaluateGrid(opt, systems, BestTechniques, opt.trials(200), rng.Campaign(opt.seed(), "fig3"),
		func(ro Options, _ int, c *Cell) {
			b := c.Sim.BreakdownShare
			ro.log("fig3 %s/%s: useful=%.1f%% lost=%.1f%% ckpt=%.1f%%/%.1f%% restart=%.1f%%/%.1f%%",
				c.System, c.Technique, 100*b.UsefulCompute, 100*b.LostCompute,
				100*b.CheckpointOK, 100*b.CheckpointFail, 100*b.RestartOK, 100*b.RestartFail)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scenario is one grid point of the Figure 4/5 exascale studies.
type Scenario struct {
	MTBF    float64 // minutes
	PFSCost float64 // level-L checkpoint/restart minutes
	System  *system.System
}

// Label renders the grid point.
func (s Scenario) Label() string {
	return fmt.Sprintf("mtbf=%g/pfs=%g", s.MTBF, s.PFSCost)
}

// Fig4MTBFs are the five exascale MTBF values (3–26 minutes per [5]).
var Fig4MTBFs = []float64{26, 20, 15, 9, 3}

// Fig4PFSCosts are the four level-L checkpoint/restart costs (minutes).
var Fig4PFSCosts = []float64{10, 20, 30, 40}

// scenarios builds the scaled system B grid.
func scenarios(mtbfs, pfsCosts []float64, tb float64) ([]Scenario, error) {
	base, err := system.ByName("B")
	if err != nil {
		return nil, err
	}
	var out []Scenario
	for _, pfs := range pfsCosts {
		for _, mtbf := range mtbfs {
			out = append(out, Scenario{
				MTBF:    mtbf,
				PFSCost: pfs,
				System:  base.WithTopCost(pfs).WithMTBF(mtbf).WithBaseline(tb),
			})
		}
	}
	return out, nil
}

// Fig4Result reproduces Figure 4: a 1440-minute application on system B
// scaled over the exascale MTBF × PFS-cost grid, for the three best
// techniques.
type Fig4Result struct {
	Scenarios  []Scenario
	Techniques []string
	// Cells indexed [scenario][technique].
	Cells [][]Cell
	// Paired holds each scenario row's CRN comparison (nil without
	// Options.CRN), index-aligned with Scenarios.
	Paired []*sim.PairedResult
}

// Fig4 runs the Figure 4 experiment.
func Fig4(opt Options) (*Fig4Result, error) {
	return exascaleGrid(opt, "fig4", Fig4PFSCosts, 1440, opt.trials(200))
}

// Fig5Result reproduces Figure 5: the 30-minute application on the 10-
// and 20-minute PFS grids, with the Welch significance verdicts for the
// paper's claim that skipping level-L checkpoints helps short
// applications.
type Fig5Result struct {
	Scenarios  []Scenario
	Techniques []string
	Cells      [][]Cell
	// DauweBeatsMoody[i] reports, for scenario i, whether Dauwe's mean
	// efficiency exceeds Moody's with 95 % one-sided confidence —
	// unpaired Welch normally, the far sharper paired t under
	// Options.CRN.
	DauweBeatsMoody []bool
	// Paired holds each scenario row's CRN comparison (nil without
	// Options.CRN).
	Paired []*sim.PairedResult
}

// Fig5 runs the Figure 5 experiment.
func Fig5(opt Options) (*Fig5Result, error) {
	grid, err := exascaleGrid(opt, "fig5", []float64{10, 20}, 30, opt.trials(400))
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{Scenarios: grid.Scenarios, Techniques: grid.Techniques, Cells: grid.Cells, Paired: grid.Paired}
	di := indexOf(grid.Techniques, "dauwe")
	mi := indexOf(grid.Techniques, "moody")
	for i := range out.Cells {
		var sig bool
		var err error
		if opt.CRN {
			// Under CRN the per-trial efficiencies are index-aligned
			// (trial i of both arms shared one failure realization), so
			// the one-sided verdict comes from the paired t test.
			sig, err = stats.SignificantlyGreaterPaired(
				out.Cells[i][di].Sim.Efficiencies, out.Cells[i][mi].Sim.Efficiencies, 0.95)
		} else {
			sig, err = stats.SignificantlyGreater(
				out.Cells[i][di].Sim.Efficiency, out.Cells[i][mi].Sim.Efficiency, 0.95)
		}
		if err != nil {
			return nil, err
		}
		out.DauweBeatsMoody = append(out.DauweBeatsMoody, sig)
	}
	return out, nil
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}

func exascaleGrid(opt Options, name string, pfsCosts []float64, tb float64, trials int) (*Fig4Result, error) {
	scens, err := scenarios(Fig4MTBFs, pfsCosts, tb)
	if err != nil {
		return nil, err
	}
	systems := make([]*system.System, len(scens))
	for i, sc := range scens {
		systems[i] = sc.System
	}
	out := &Fig4Result{Scenarios: scens, Techniques: BestTechniques}
	out.Cells, out.Paired, err = evaluateGrid(opt, systems, BestTechniques, trials, rng.Campaign(opt.seed(), name),
		func(ro Options, i int, c *Cell) {
			c.System = scens[i].Label()
			ro.log("%s %s/%s: sim=%.3f±%.3f pred=%.3f plan=%v",
				name, c.System, c.Technique, c.Sim.Efficiency.Mean, c.Sim.Efficiency.Std, c.Predicted.Efficiency, c.Plan)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateGrid evaluates one figure grid, row i being every technique
// on systems[i] (evaluateRow), with the rows run by runRows. each is
// called on every cell of a row, in technique order, inside the row's
// job and with the row's Options, to relabel the cell and log it. The
// paired comparisons come back index-aligned with systems under CRN and
// nil otherwise.
func evaluateGrid(opt Options, systems []*system.System, techs []string, trials int, seed rng.Seed,
	each func(ro Options, i int, c *Cell)) ([][]Cell, []*sim.PairedResult, error) {
	type gridRow struct {
		cells  []Cell
		paired *sim.PairedResult
	}
	rows, err := runRows(opt, len(systems), func(i int, ro Options) (gridRow, error) {
		cells, paired, err := evaluateRow(systems[i], techs, trials, seed, ro)
		if err != nil {
			return gridRow{}, err
		}
		for k := range cells {
			each(ro, i, &cells[k])
		}
		return gridRow{cells, paired}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	cells := make([][]Cell, len(rows))
	var paired []*sim.PairedResult
	for i, r := range rows {
		cells[i] = r.cells
		if opt.CRN {
			paired = append(paired, r.paired)
		}
	}
	return cells, paired, nil
}

// Fig6Row is one scenario of the Figure 6 prediction-error plot.
type Fig6Row struct {
	Scenario string
	// Errors holds predicted−simulated efficiency per technique,
	// aligned with Fig6Result.Techniques.
	Errors []float64
}

// Fig6Result reproduces Figure 6: per-technique prediction error over
// the 20 Figure 4 scenarios, sorted by the magnitude of Moody's error.
type Fig6Result struct {
	Techniques []string
	Rows       []Fig6Row
}

// Fig6FromFig4 derives the Figure 6 ordering from a completed Figure 4
// run (the paper derives it from the same 20 scenarios).
func Fig6FromFig4(f4 *Fig4Result) (*Fig6Result, error) {
	mi := indexOf(f4.Techniques, "moody")
	if mi < 0 {
		return nil, fmt.Errorf("experiments: fig4 run lacks moody")
	}
	out := &Fig6Result{Techniques: f4.Techniques}
	for i, row := range f4.Cells {
		r := Fig6Row{Scenario: f4.Scenarios[i].Label()}
		for _, c := range row {
			r.Errors = append(r.Errors, c.PredictionError())
		}
		out.Rows = append(out.Rows, r)
	}
	sort.SliceStable(out.Rows, func(a, b int) bool {
		return abs(out.Rows[a].Errors[mi]) < abs(out.Rows[b].Errors[mi])
	})
	return out, nil
}

// Fig6 runs Figure 4's grid and derives the prediction-error plot.
func Fig6(opt Options) (*Fig6Result, error) {
	f4, err := Fig4(opt)
	if err != nil {
		return nil, err
	}
	return Fig6FromFig4(f4)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
