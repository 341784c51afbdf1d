package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
)

// Workload sizes. At full size a campaign rep takes 0.4–0.8 s on a
// 2-core machine and a Figure 5 rep about 0.1 s, so a 20 s run holds
// twenty reps or more. Figure 5 runs the optimizers' coarse grids
// (experiments.Options.Fast) with a tenth of the paper's 400 trials per
// cell: the paper's full grids take 10–20 s a rep, too long to repeat,
// and at 40 trials the sweeps still take about 85% of the time. Tiny
// sizes exist for the harness smoke test.
const (
	heavyTrials, heavyTrialsTiny = 10000, 200
	lightTrials, lightTrialsTiny = 100000, 2000
	// The light campaign checkpoints five times per rep.
	lightCheckpoints           = 5
	fig5Trials, fig5TrialsTiny = 40, 4
)

// heavyPlan is the plan every earlier campaign benchmark ran on Table I
// D4: failure-heavy trials with many events each.
var heavyPlan = pattern.Plan{Tau0: 1.3, Counts: []int{3}, Levels: []int{1, 2}}

// lightSystem is a one-level system with rare failures (MTBF 200 min,
// T_B 600 min, δ = R = 0.5 min): about 9 µs of CPU per trial, so the
// fixed per-trial cost of the campaign runner dominates.
func lightSystem() *system.System {
	return &system.System{
		Name: "light", Source: "mlbench campaign-light", MTBF: 200, BaselineTime: 600,
		Levels: []system.Level{{Checkpoint: 0.5, Restart: 0.5, SeverityProb: 1}},
	}
}

// lightPlan checkpoints close to Young's interval √(2δM) ≈ 14 min.
var lightPlan = pattern.Plan{Tau0: 14, Levels: []int{1}}

// lightWorkers is the light campaign's parallelism. With two workers its
// 8-trial blocks queue on the runner's merge lock (1.8x the CPU time of
// one worker for the same wall time), and blocks finished ahead of a
// descheduled worker park in memory, so peak RSS swings between 13 and
// 31 MiB with the machine's load. One worker measures the per-trial cost
// without that noise; sim.scaling_eff_w2 covers the parallel runner.
const lightWorkers = 1

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// jsonDigest is the SHA-256 of v's JSON encoding. Floats marshal as
// shortest round-trip decimals, so equal digests mean equal bits.
func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

func prepareFig5(p repParams) (func() (RepReport, error), error) {
	opt := experiments.Options{Seed: p.seed, Workers: workers, Fast: true, Trials: fig5Trials}
	if p.tiny {
		opt.Trials = fig5TrialsTiny
	}
	trials := opt.Trials
	var spans *obs.Tracer
	if p.traced {
		spans = obs.NewTracer()
		opt.Spans = spans
	}
	return func() (RepReport, error) {
		start := time.Now()
		res, err := experiments.Fig5(opt)
		wall := time.Since(start)
		if err != nil {
			return RepReport{}, err
		}
		rep := RepReport{WallS: wall.Seconds()}
		// A plan's empty count vector comes back nil or empty depending on
		// which sweep worker found it; the digest covers the plan, not that.
		for _, row := range res.Cells {
			for i := range row {
				row[i].Plan.Counts = nonNil(row[i].Plan.Counts)
			}
		}
		digest, err := jsonDigest(res)
		if err != nil {
			return RepReport{}, err
		}
		rep.Digests = map[string]string{"fig5_result_sha256": digest}
		if len(res.Cells) != 10 || len(res.DauweBeatsMoody) != 10 {
			rep.Ops = 30
			rep.fail(30, "fig5 has %d scenario rows, want 10", len(res.Cells))
			return rep, nil
		}
		for i, row := range res.Cells {
			for _, c := range row {
				rep.Ops++
				eff := c.Sim.Efficiency.Mean
				switch {
				case c.Plan.Validate(res.Scenarios[i].System) != nil:
					rep.fail(1, "%s/%s: invalid plan %v", c.System, c.Technique, c.Plan)
				case c.Sim.Trials != trials:
					rep.fail(1, "%s/%s: %d trials, want %d", c.System, c.Technique, c.Sim.Trials, trials)
				case !(eff > 0 && eff <= 1) || !(c.Predicted.Efficiency > 0 && c.Predicted.Efficiency <= 1):
					rep.fail(1, "%s/%s: efficiency sim %v predicted %v", c.System, c.Technique, eff, c.Predicted.Efficiency)
				}
			}
		}
		if spans != nil {
			rep.Extras = fig5Attribution(spans.Snapshot())
		}
		return rep, nil
	}, nil
}

// fig5Attribution splits a traced Figure 5 run between the optimizer
// and the simulator, from the spans experiments.Options.Spans records.
func fig5Attribution(forest []obs.SpanNode) map[string]Metric {
	total := map[string]float64{}
	count := map[string]float64{}
	var walk func([]obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			total[n.Name] += float64(n.TotalNS)
			count[n.Name] += float64(n.Count)
			walk(n.Children)
		}
	}
	walk(forest)
	frac := func(v float64) Metric { return Metric{Value: v, Unit: "frac", N: 1} }
	return map[string]Metric{
		"experiments.optimize_frac": frac(total["optimize"] / total["cell"]),
		"experiments.campaign_frac": frac(total["campaign"] / total["cell"]),
		// Share of the sweep workers' capacity spent inside work chunks.
		"optimize.sweep_busy_frac":  frac(total["chunk"] / (workers * total["optimize"])),
		"optimize.chunks_per_sweep": {Value: count["chunk"] / count["optimize"], Unit: "count", N: 1},
	}
}

func prepareHeavy(p repParams) (func() (RepReport, error), error) {
	sys, err := system.ByName("D4")
	if err != nil {
		return nil, err
	}
	n := heavyTrials
	if p.tiny {
		n = heavyTrialsTiny
	}
	camp := sim.Campaign{
		Scenario: sim.Scenario{System: sys, Plan: heavyPlan},
		Trials:   n,
		Seed:     rng.Campaign(p.seed, "mlbench").Scenario(CampaignHeavy),
		Workers:  workers,
	}
	var timed *timedSink
	if p.traced {
		exact := sim.NewExactSink()
		exact.Reserve(n, sys.NumLevels()) // as the runner does for its default sink
		timed = &timedSink{inner: exact}
		camp.Sink = timed
	}
	return func() (RepReport, error) {
		start := time.Now()
		res, err := camp.Run()
		wall := time.Since(start)
		if err != nil {
			return RepReport{}, err
		}
		rep := RepReport{WallS: wall.Seconds(), Ops: n}
		digest, err := jsonDigest(res)
		if err != nil {
			return RepReport{}, err
		}
		rep.Digests = map[string]string{"campaign_result_sha256": digest}
		if res.Trials != n || len(res.Efficiencies) != n {
			rep.fail(n, "campaign reports %d trials and %d efficiencies, want %d", res.Trials, len(res.Efficiencies), n)
		}
		for i, e := range res.Efficiencies {
			if !(e > 0 && e <= 1) {
				rep.fail(1, "trial %d efficiency %v", i, e)
			}
		}
		rep.Extras = map[string]Metric{"trials_per_s": {Value: float64(n) / wall.Seconds(), Unit: "1/s", N: 1}}
		if timed != nil {
			timed.addExtras(rep.Extras, "heavy", workers, wall)
		}
		return rep, nil
	}, nil
}

func prepareLight(p repParams) (func() (RepReport, error), error) {
	sys := lightSystem()
	n := lightTrials
	if p.tiny {
		n = lightTrialsTiny
	}
	ckpt := filepath.Join(p.tmp, "campaign-light.ckpt")
	if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var sink sim.PortableSink = sim.NewStreamSink()
	var timed *timedSink
	if p.traced {
		timed = &timedSink{inner: sink}
		sink = timed
	}
	camp := sim.Campaign{
		Scenario:   sim.Scenario{System: sys, Plan: lightPlan},
		Trials:     n,
		Seed:       rng.Campaign(p.seed, "mlbench").Scenario(CampaignLight),
		Workers:    lightWorkers,
		Sink:       sink,
		Checkpoint: &sim.CheckpointConfig{Path: ckpt, Interval: n / lightCheckpoints},
	}
	return func() (RepReport, error) {
		start := time.Now()
		res, err := camp.Run()
		wall := time.Since(start)
		if err != nil {
			return RepReport{}, err
		}
		rep := RepReport{WallS: wall.Seconds(), Ops: n}
		if res.Trials != n || res.EfficiencySketch == nil || res.EfficiencySketch.N() != int64(n) {
			rep.fail(n, "stream campaign reports %d trials, want %d with sketches", res.Trials, n)
			return rep, nil
		}
		if _, err := os.Stat(ckpt); err != nil {
			rep.fail(n, "no checkpoint file: %v", err)
		}
		if eff := res.Efficiency; !(eff.Min > 0 && eff.Max <= 1) {
			rep.fail(n, "efficiency range [%v, %v]", eff.Min, eff.Max)
		}
		rep.Values = map[string]float64{
			"trials":       float64(res.Trials),
			"completed":    float64(res.Completed),
			"failures":     res.MeanFailures[0] * float64(n),
			"eff_mean":     res.Efficiency.Mean,
			"eff_std":      res.Efficiency.Std,
			"wall_mean_mn": res.WallTime.Mean,
		}
		rep.Extras = map[string]Metric{"trials_per_s": {Value: float64(n) / wall.Seconds(), Unit: "1/s", N: 1}}
		if timed != nil {
			timed.addExtras(rep.Extras, "light", lightWorkers, wall)
		}
		return rep, nil
	}, nil
}

// timedSink wraps a campaign sink and times the runner's calls into it,
// delegating every call: each block shard from Shard to its last
// Consume (a worker's busy time), Merge, and MarshalState (the
// checkpoint serialization).
type timedSink struct {
	inner  sim.PortableSink
	busyNS atomic.Int64
	// Merge and MarshalState are called from one goroutine at a time
	// (under the runner's merge lock, or after its workers exit).
	mergeNS, marshalNS int64
	marshals           int
}

type timedShard struct {
	inner       sim.SinkShard
	start, last time.Time
}

func (s *timedShard) Consume(trial int, r *sim.TrialResult) {
	s.inner.Consume(trial, r)
	s.last = time.Now()
}

func (s *timedSink) Shard() sim.SinkShard {
	return &timedShard{inner: s.inner.Shard(), start: time.Now()}
}

func (s *timedSink) Merge(shard sim.SinkShard) error {
	sh, ok := shard.(*timedShard)
	if !ok {
		return fmt.Errorf("timedSink: foreign shard %T", shard)
	}
	if !sh.last.IsZero() {
		s.busyNS.Add(int64(sh.last.Sub(sh.start)))
	}
	t := time.Now()
	err := s.inner.Merge(sh.inner)
	s.mergeNS += int64(time.Since(t))
	return err
}

func (s *timedSink) Result() (sim.CampaignResult, error) { return s.inner.Result() }
func (s *timedSink) Kind() string                        { return s.inner.Kind() }

func (s *timedSink) MarshalState() ([]byte, error) {
	t := time.Now()
	b, err := s.inner.MarshalState()
	s.marshalNS += int64(time.Since(t))
	s.marshals++
	return b, err
}

func (s *timedSink) UnmarshalState(b []byte) error { return s.inner.UnmarshalState(b) }

func (s *timedSink) MergeSink(o sim.CampaignSink) error { return s.inner.MergeSink(o) }

// addExtras records the sink timings of a campaign that ran on nWorkers
// workers and took wall.
func (s *timedSink) addExtras(extras map[string]Metric, label string, nWorkers int, wall time.Duration) {
	frac := func(v float64) Metric { return Metric{Value: v, Unit: "frac", N: 1} }
	extras["sim.worker_busy_frac."+label] = frac(float64(s.busyNS.Load()) / (float64(nWorkers) * float64(wall)))
	extras["sim.merge_frac."+label] = frac(float64(s.mergeNS) / float64(wall))
	if s.marshals > 0 {
		extras["sim.checkpoint_ms."+label] = Metric{Value: float64(s.marshalNS) / float64(s.marshals) / 1e6, Unit: "ms", N: s.marshals}
	}
}
