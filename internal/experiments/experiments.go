// Package experiments reproduces every table and figure of the paper's
// evaluation (Section IV): Table I's test-system catalog and Figures 2–6.
// Each experiment optimizes checkpoint intervals with the techniques
// under comparison, simulates the optimized plans over hundreds of
// randomized trials, and returns the structured rows/series the paper
// reports (efficiency bars with standard deviations, model-prediction
// diamonds, time breakdowns, prediction errors).
package experiments

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"

	// The five technique packages register themselves; the concrete
	// types are also needed for Fast-mode resolution tuning.
	"repro/internal/model/benoit"
	_ "repro/internal/model/daly"
	"repro/internal/model/dauwe"
	"repro/internal/model/di"
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
	// run may use. The figure grids (Figures 2–5) keep up to Workers
	// rows in flight, and each row runs its campaigns with Workers
	// workers; results are identical for every value (DESIGN.md §2.15).
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
	// CollectMetrics attaches per-cell metrics even without a global
	// sink.
	CollectMetrics bool
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
	// campaigns advance in batches until every pairwise paired 95% CI
	// half-width on mean efficiency is at most CITarget (or the trial
	// budget runs out). Zero disables stopping. When Metrics is set, the
	// counters vr_trials_run_total and vr_trials_saved_total record the
	// per-arm trials executed and the budget the stopping rule left
	// unrun.
	CITarget float64
	// CIBatch is the per-arm batch size between stopping checks
	// (0 = the sim default of 64).
	CIBatch int
	// Stream runs every campaign through sim.NewStreamSink: constant
	// memory at any trial count, sketch-backed summaries, no per-trial
	// Efficiencies. Ignored under CRN (paired comparisons need the
	// exact per-trial slices).
	Stream bool
	// CheckpointDir, when non-empty, checkpoints every campaign into
	// one file per (experiment, system, technique) cell under this
	// directory. Ignored under CRN.
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
	if fast {
		switch t := tech.(type) {
		case *dauwe.Technique:
			t.Tau0Points, t.CountVals = 24, fastCounts
		case *di.Technique:
			t.Tau0Points, t.CountVals = 24, fastCounts
		case *benoit.Technique:
			t.Tau0Points, t.CountVals = 24, fastCounts
		case *moody.Technique:
			t.Tau0Points, t.CountVals, t.MaxPeriodIntervals = 20, fastCounts, 128
		}
	}
	return tech, nil
}

// applySink wires the Options' streaming/checkpoint choices into one
// campaign. label names the cell (experiment/system/technique) and
// becomes the checkpoint filename.
func (o Options) applySink(camp *sim.Campaign, label string) {
	if o.Stream && camp.Sink == nil {
		camp.Sink = sim.NewStreamSink()
	}
	if o.CheckpointDir == "" || camp.Checkpoint != nil {
		return
	}
	interval := o.CheckpointInterval
	if interval == 0 {
		interval = camp.Trials / 8
		if interval < 1 {
			interval = 1
		}
	}
	// The campaign seed words disambiguate same-named cells across
	// experiments (fig2 vs fig3 share system/technique names but never
	// seeds), so a stale file can at worst fail header validation, not
	// silently resume the wrong cell.
	hi, lo := camp.Seed.Words()
	name := fmt.Sprintf("%s-%08x.ckpt", sanitizeCell(label), (hi^lo)&0xffffffff)
	camp.Checkpoint = &sim.CheckpointConfig{
		Path:     filepath.Join(o.CheckpointDir, name),
		Interval: interval,
		Resume:   o.Resume,
	}
}

// applyEvents chains a structured-event emitter onto the campaign's
// Progress hook: campaign_start on the first update (plus resume, when
// the run picked up a checkpoint), checkpoint on flagged merges, and
// campaign_error/campaign_end on the terminal update. Every record
// carries label, so the records of cells running at once group by cell.
// It composes with any Progress hook already installed.
func (o Options) applyEvents(camp *sim.Campaign, label string) {
	if o.Events == nil {
		return
	}
	ev, prev := o.Events.WithLabel(label), camp.Progress
	ckPath := ""
	if camp.Checkpoint != nil {
		ckPath = camp.Checkpoint.Path
	}
	started := time.Now()
	first := true
	// Progress runs under the runner's merge lock, so the closure state
	// needs no extra synchronization.
	camp.Progress = func(u sim.ProgressUpdate) {
		if prev != nil {
			prev(u)
		}
		if first {
			first = false
			ev.CampaignStart(0, 1, u.First, u.Limit, u.Total)
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

// runCampaign executes a campaign with the Options' telemetry hooks
// attached: per-trial progress ticks, and — when metrics collection is
// on — one obs.SimMetrics shard per worker, merged after the run and
// folded into the global sink. label names the cell: it becomes the
// checkpoint filename (applySink) and tags the campaign's events
// (applyEvents). Returns the merged per-campaign metrics (nil when
// collection is off).
func (o Options) runCampaign(camp sim.Campaign, label string) (sim.CampaignResult, *obs.SimMetrics, error) {
	o.applySink(&camp, label)
	o.applyEvents(&camp, label)
	campSpan := o.Spans.Start("campaign")
	defer campSpan.End()
	setupSpan := o.Spans.Start("setup")
	if o.TrialDone != nil || o.TrialStats != nil {
		done := o.TrialDone
		var eff, wall *obs.StreamStat
		if o.TrialStats != nil {
			eff = o.TrialStats.Stat("trial_efficiency")
			wall = o.TrialStats.Stat("trial_walltime_minutes")
		}
		camp.TrialDone = func(r sim.TrialResult) {
			if eff != nil {
				eff.Observe(r.Efficiency)
				wall.Observe(r.WallTime)
			}
			if done != nil {
				done()
			}
		}
	}
	var pool *obs.Pool
	if o.Metrics != nil || o.CollectMetrics {
		pool = &obs.Pool{}
		camp.ObserverFactory = pool.Observer
	}
	var tracers *obs.TracerPool
	if o.Spans != nil {
		tracers = &obs.TracerPool{}
		inner := camp.ObserverFactory
		camp.ObserverFactory = func(worker int) sim.Observer {
			spans := obs.TrialSpans(tracers.Shard())
			if inner == nil {
				return spans
			}
			return obs.Multi(inner(worker), spans)
		}
	}
	setupSpan.End()

	runSpan := o.Spans.Start("run")
	res, err := camp.Run()
	runSpan.End()

	mergeSpan := o.Spans.Start("merge")
	defer mergeSpan.End()
	if tracers != nil {
		// Worker trial spans appear under the stage that ran them.
		runSpan.Adopt(tracers.Merged())
	}
	if err != nil || pool == nil {
		return res, nil, err
	}
	m, err := pool.Merged()
	if err != nil {
		return res, nil, err
	}
	if o.Metrics != nil {
		if err := o.Metrics.Merge(m); err != nil {
			return res, nil, err
		}
	}
	return res, m, nil
}

// optimizePlan runs one technique's optimizer for one system, with the
// Options' sweep telemetry and spans attached.
func optimizePlan(sys *system.System, techName string, opt Options) (pattern.Plan, model.Prediction, error) {
	tech, err := newTechnique(techName, opt.Fast)
	if err != nil {
		return pattern.Plan{}, model.Prediction{}, err
	}
	if opt.Metrics != nil {
		// Techniques with an instrumented optimizer sweep feed the
		// global telemetry sink alongside the simulator shards.
		if m, ok := tech.(interface{ SetSweepMetrics(*obs.Registry) }); ok {
			m.SetSweepMetrics(opt.Metrics.Registry())
		}
	}
	var sweepSpans *obs.Tracer
	if opt.Spans != nil {
		// The sweep merges its per-worker span shards into a private
		// tracer, grafted under this cell's "optimize" span afterwards.
		if s, ok := tech.(interface{ SetSweepSpans(*obs.Tracer) }); ok {
			sweepSpans = obs.NewTracer()
			s.SetSweepSpans(sweepSpans)
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

// evaluate optimizes one technique for one system and simulates the
// resulting plan.
func evaluate(sys *system.System, techName string, trials int, seed rng.Seed, opt Options) (Cell, error) {
	cellSpan := opt.Spans.Start("cell")
	defer cellSpan.End()
	plan, pred, err := optimizePlan(sys, techName, opt)
	if err != nil {
		return Cell{}, err
	}
	camp := sim.Campaign{
		Scenario: opt.scenarioFor(sys, plan),
		Trials:   trials,
		Seed:     seed.Scenario(sys.Name + "/" + techName),
		Workers:  opt.Workers,
	}
	res, metrics, err := opt.runCampaign(camp, sys.Name+"-"+techName)
	if err != nil {
		return Cell{}, fmt.Errorf("%s on %s: simulate: %w", techName, sys.Name, err)
	}
	return Cell{
		System:    sys.Name,
		Technique: techName,
		Plan:      plan,
		Predicted: pred,
		Sim:       res,
		Metrics:   metrics,
	}, nil
}

// evaluateRow evaluates every technique of one experiment row. Without
// CRN each technique runs its own independently seeded campaign (the
// historical layout) and the returned PairedResult is nil. With CRN the
// techniques optimize exactly as before, then all plans run as one
// sim.PairedCampaign on the shared seed.Scenario(sys.Name) — trial i of
// every technique sees the same failure realization — and the row's
// paired comparisons ride back alongside the cells.
func evaluateRow(sys *system.System, techs []string, trials int, seed rng.Seed, opt Options) ([]Cell, *sim.PairedResult, error) {
	if !opt.CRN {
		cells := make([]Cell, 0, len(techs))
		for _, tech := range techs {
			c, err := evaluate(sys, tech, trials, seed, opt)
			if err != nil {
				return nil, nil, err
			}
			cells = append(cells, c)
		}
		return cells, nil, nil
	}
	cells := make([]Cell, len(techs))
	arms := make([]sim.Scenario, len(techs))
	for i, tech := range techs {
		cellSpan := opt.Spans.Start("cell")
		plan, pred, err := optimizePlan(sys, tech, opt)
		cellSpan.End()
		if err != nil {
			return nil, nil, err
		}
		cells[i] = Cell{System: sys.Name, Technique: tech, Plan: plan, Predicted: pred}
		arms[i] = opt.scenarioFor(sys, plan)
	}
	paired, armMetrics, err := opt.runPaired(arms, trials, seed.Scenario(sys.Name), false)
	if err != nil {
		return nil, nil, fmt.Errorf("crn row %s: %w", sys.Name, err)
	}
	for i := range cells {
		cells[i].Sim = paired.Arms[i]
		if armMetrics != nil {
			cells[i].Metrics = armMetrics[i]
		}
	}
	return cells, paired, nil
}

// runPaired executes one CRN row with the Options' telemetry hooks: the
// same per-trial progress ticks and streaming stats as runCampaign, and
// one obs.SimMetrics pool per arm (campaign spans stay row-granular in
// CRN mode — per-worker trial spans are not grafted).
func (o Options) runPaired(arms []sim.Scenario, trials int, seed rng.Seed, controlVariates bool) (*sim.PairedResult, []*obs.SimMetrics, error) {
	campSpan := o.Spans.Start("paired-campaign")
	defer campSpan.End()
	pc := sim.PairedCampaign{
		Arms:            arms,
		Trials:          trials,
		Seed:            seed,
		Workers:         o.Workers,
		TargetCI:        o.CITarget,
		BatchSize:       o.CIBatch,
		ControlVariates: controlVariates,
	}
	if o.TrialDone != nil || o.TrialStats != nil {
		done := o.TrialDone
		var eff, wall *obs.StreamStat
		if o.TrialStats != nil {
			eff = o.TrialStats.Stat("trial_efficiency")
			wall = o.TrialStats.Stat("trial_walltime_minutes")
		}
		pc.TrialDone = func(arm int, r sim.TrialResult) {
			if eff != nil {
				eff.Observe(r.Efficiency)
				wall.Observe(r.WallTime)
			}
			if done != nil {
				done()
			}
		}
	}
	var pools []*obs.Pool
	if o.Metrics != nil || o.CollectMetrics {
		pools = make([]*obs.Pool, len(arms))
		for a := range pools {
			pools[a] = &obs.Pool{}
		}
		pc.ObserverFactory = func(arm, worker int) sim.Observer { return pools[arm].Observer(worker) }
	}
	res, err := pc.Run()
	if err != nil {
		return nil, nil, err
	}
	if o.Metrics != nil {
		reg := o.Metrics.Registry()
		reg.Counter("vr_trials_run_total").Add(uint64(res.TrialsRun * len(arms)))
		reg.Counter("vr_trials_saved_total").Add(uint64(res.TrialsSaved() * len(arms)))
	}
	if pools == nil {
		return &res, nil, nil
	}
	metrics := make([]*obs.SimMetrics, len(arms))
	for a := range pools {
		m, err := pools[a].Merged()
		if err != nil {
			return nil, nil, err
		}
		metrics[a] = m
		if o.Metrics != nil {
			if err := o.Metrics.Merge(m); err != nil {
				return nil, nil, err
			}
		}
	}
	return &res, metrics, nil
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
