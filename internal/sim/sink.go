package sim

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/stats"
)

// CampaignSink is the streaming aggregation API of the campaign runner:
// instead of materializing every TrialResult, Run feeds results through
// a sink and asks it for the final CampaignResult. The runner's
// contract makes sink output deterministic for any worker count:
//
//   - The campaign's trial range is partitioned into fixed-size blocks
//     (Campaign.Block trials each; the partition depends only on the
//     trial indices, never on Workers or scheduling).
//   - Shard() builds one accumulator per block. It is the only method
//     that may be called concurrently.
//   - Consume is called for each trial of the block in ascending trial
//     order, from a single worker goroutine.
//   - Merge folds completed shards into the sink in ascending block
//     order, from one goroutine at a time, and may recycle the shard.
//   - Result finalizes after every block has merged.
//
// A sink whose Merge and Consume folds are order-deterministic (all of
// the implementations here) therefore produces bitwise-identical
// results regardless of Workers — the same contract CampaignResult
// always had, now extended to constant-memory aggregation, campaign
// checkpoint/resume, and multi-process shard merges.
type CampaignSink interface {
	// Shard returns an empty accumulator for one trial block. Safe for
	// concurrent use; every other method is called from one goroutine
	// at a time.
	Shard() SinkShard
	// Merge folds a completed shard into the sink. Shards arrive in
	// ascending block order; the sink owns the shard afterwards (it may
	// recycle it through Shard).
	Merge(SinkShard) error
	// Result finalizes the aggregate over every consumed trial.
	Result() (CampaignResult, error)
}

// SinkShard accumulates the trials of one scheduling block.
type SinkShard interface {
	// Consume absorbs trial i's result. r and r.Failures are only valid
	// during the call — implementations copy what they keep.
	Consume(trial int, r *TrialResult)
}

// PortableSink is a CampaignSink whose merged state can be serialized —
// the extension campaign checkpointing and multi-process sharding build
// on. MarshalState must capture the folded state bit-exactly, so that
// save → load → continue reproduces an uninterrupted run.
type PortableSink interface {
	CampaignSink
	// Kind tags the serialized format ("exact", "stream").
	Kind() string
	// MarshalState serializes the sink's merged state.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces the sink's state with a serialized one.
	UnmarshalState([]byte) error
	// MergeSink folds another sink of the same kind into this one. The
	// argument must cover the trial range immediately following this
	// sink's (shard files merge in ascending range order).
	MergeSink(CampaignSink) error
}

// NewSink instantiates a portable sink by kind — the inverse of
// PortableSink.Kind, used when loading checkpoint and shard files.
func NewSink(kind string) (PortableSink, error) {
	switch kind {
	case "exact":
		return NewExactSink(), nil
	case "stream":
		return NewStreamSink(), nil
	default:
		return nil, fmt.Errorf("sim: unknown sink kind %q", kind)
	}
}

// ---------------------------------------------------------------------
// ExactSink

// ExactSink is the exact-slice sink: it reconstructs the full ordered
// TrialResult sequence and aggregates it exactly as the historical
// Campaign.Run did, so its CampaignResult — including the opt-in
// Efficiencies slice — is bitwise identical to the pre-sink runner.
// It is the default sink (Campaign.Sink == nil) and the one to request
// when a caller needs per-trial efficiencies (Welch/paired
// significance, exact quantiles). Memory is O(trials); use StreamSink
// for constant-memory mega-campaigns.
type ExactSink struct {
	levels  int
	results []TrialResult
	fails   []int // flat per-trial severity counts; results alias it

	mu   sync.Mutex
	free []*exactShard
}

// NewExactSink returns an empty exact-slice sink.
func NewExactSink() *ExactSink { return &ExactSink{} }

type exactShard struct {
	results []TrialResult
	fails   []int
	// buf backs results for blocks of up to DefaultBlock trials, so a
	// fresh shard does not grow its slices trial by trial.
	buf [DefaultBlock]TrialResult
}

func (s *exactShard) Consume(trial int, r *TrialResult) {
	if s.fails == nil {
		s.fails = make([]int, 0, DefaultBlock*len(r.Failures))
	}
	rc := *r
	s.fails = append(s.fails, r.Failures...)
	rc.Failures = s.fails[len(s.fails)-len(r.Failures):]
	s.results = append(s.results, rc)
}

// Shard implements CampaignSink.
func (s *ExactSink) Shard() SinkShard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		sh := s.free[n-1]
		s.free = s.free[:n-1]
		sh.results, sh.fails = sh.results[:0], sh.fails[:0]
		return sh
	}
	sh := &exactShard{}
	sh.results = sh.buf[:0]
	return sh
}

// Reserve pre-sizes the sink for a known campaign (runner hint).
func (s *ExactSink) Reserve(trials, levels int) {
	s.levels = levels
	if cap(s.results) < trials {
		s.results = append(make([]TrialResult, 0, trials), s.results...)
	}
	if cap(s.fails) < trials*levels {
		// Growing the flat buffer later would strand earlier backing
		// arrays (results keep pointing at copied-out data — correct,
		// but wasteful); reserving avoids that on the common path.
		fails := make([]int, len(s.fails), trials*levels)
		copy(fails, s.fails)
		s.rebase(fails)
	}
}

// rebase moves the flat failure buffer and repoints every stored
// result's Failures slice into it.
func (s *ExactSink) rebase(fails []int) {
	off := 0
	for i := range s.results {
		L := len(s.results[i].Failures)
		s.results[i].Failures = fails[off : off+L]
		off += L
	}
	s.fails = fails
}

// Merge implements CampaignSink.
func (s *ExactSink) Merge(shard SinkShard) error {
	sh, ok := shard.(*exactShard)
	if !ok {
		return fmt.Errorf("sim: ExactSink.Merge got foreign shard %T", shard)
	}
	for i := range sh.results {
		r := sh.results[i]
		if s.levels == 0 {
			s.levels = len(r.Failures)
		}
		s.fails = append(s.fails, r.Failures...)
		r.Failures = s.fails[len(s.fails)-len(r.Failures):]
		s.results = append(s.results, r)
	}
	s.mu.Lock()
	s.free = append(s.free, sh)
	s.mu.Unlock()
	return nil
}

// Results exposes the reconstructed per-trial results in trial order
// (entry 0 is the first trial of the sink's range).
func (s *ExactSink) Results() []TrialResult { return s.results }

// Result implements CampaignSink.
func (s *ExactSink) Result() (CampaignResult, error) {
	if len(s.results) == 0 {
		return CampaignResult{}, fmt.Errorf("sim: exact sink consumed no trials")
	}
	return aggregateResults(s.levels, s.results), nil
}

// Kind implements PortableSink.
func (s *ExactSink) Kind() string { return "exact" }

// exactState is the serialized ExactSink: the full ordered trial list.
// Floats travel as IEEE-754 bit patterns so a save/load round trip is
// bitwise exact.
type exactState struct {
	Levels int               `json:"levels"`
	Trials []exactTrialState `json:"trials"`
}

type exactTrialState struct {
	WallBits     uint64 `json:"w"`
	Completed    bool   `json:"c,omitempty"`
	ProgressBits uint64 `json:"p"`
	EffBits      uint64 `json:"e"`
	Breakdown    [6]uint64
	Failures     []int `json:"f"`
	Scratch      int   `json:"s,omitempty"`
}

// MarshalState implements PortableSink.
func (s *ExactSink) MarshalState() ([]byte, error) {
	st := exactState{Levels: s.levels, Trials: make([]exactTrialState, len(s.results))}
	for i := range s.results {
		st.Trials[i] = packTrial(&s.results[i])
	}
	return json.Marshal(st)
}

// UnmarshalState implements PortableSink. A state whose trials do not
// each carry one non-negative failure count per level is rejected.
func (s *ExactSink) UnmarshalState(data []byte) error {
	var st exactState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Levels < 0 {
		return fmt.Errorf("sim: exact sink state has %d levels", st.Levels)
	}
	for i := range st.Trials {
		t := &st.Trials[i]
		if len(t.Failures) != st.Levels {
			return fmt.Errorf("sim: exact sink state: trial %d has %d failure counts, want one per level (%d)",
				i, len(t.Failures), st.Levels)
		}
		if t.Scratch < 0 || hasNegative(t.Failures) {
			return fmt.Errorf("sim: exact sink state: trial %d has a negative count", i)
		}
	}
	s.levels = st.Levels
	s.results = make([]TrialResult, len(st.Trials))
	s.fails = make([]int, 0, len(st.Trials)*st.Levels)
	for i := range st.Trials {
		r := unpackTrial(&st.Trials[i])
		s.fails = append(s.fails, r.Failures...)
		r.Failures = s.fails[len(s.fails)-len(r.Failures):]
		s.results[i] = r
	}
	return nil
}

// stateShape reports the trial and level counts of the merged state,
// which checkpoint loading checks against the file's header.
func (s *ExactSink) stateShape() (trials, levels int) { return len(s.results), s.levels }

// MergeSink implements PortableSink.
func (s *ExactSink) MergeSink(o CampaignSink) error {
	os, ok := o.(*ExactSink)
	if !ok {
		return fmt.Errorf("sim: ExactSink.MergeSink got %T", o)
	}
	if s.levels == 0 {
		s.levels = os.levels
	}
	for i := range os.results {
		r := os.results[i]
		s.fails = append(s.fails, r.Failures...)
		r.Failures = s.fails[len(s.fails)-len(r.Failures):]
		s.results = append(s.results, r)
	}
	return nil
}

// hasNegative reports whether any count in xs is negative.
func hasNegative[T int | int64](xs []T) bool {
	for _, x := range xs {
		if x < 0 {
			return true
		}
	}
	return false
}

func packTrial(r *TrialResult) exactTrialState {
	b := r.Breakdown
	return exactTrialState{
		WallBits:     floatBits(r.WallTime),
		Completed:    r.Completed,
		ProgressBits: floatBits(r.Progress),
		EffBits:      floatBits(r.Efficiency),
		Breakdown: [6]uint64{
			floatBits(b.UsefulCompute), floatBits(b.LostCompute),
			floatBits(b.CheckpointOK), floatBits(b.CheckpointFail),
			floatBits(b.RestartOK), floatBits(b.RestartFail),
		},
		Failures: r.Failures,
		Scratch:  r.ScratchRestarts,
	}
}

func unpackTrial(t *exactTrialState) TrialResult {
	return TrialResult{
		WallTime:   bitsFloat(t.WallBits),
		Completed:  t.Completed,
		Progress:   bitsFloat(t.ProgressBits),
		Efficiency: bitsFloat(t.EffBits),
		Breakdown: Breakdown{
			UsefulCompute: bitsFloat(t.Breakdown[0]), LostCompute: bitsFloat(t.Breakdown[1]),
			CheckpointOK: bitsFloat(t.Breakdown[2]), CheckpointFail: bitsFloat(t.Breakdown[3]),
			RestartOK: bitsFloat(t.Breakdown[4]), RestartFail: bitsFloat(t.Breakdown[5]),
		},
		Failures:        t.Failures,
		ScratchRestarts: t.Scratch,
	}
}

// ---------------------------------------------------------------------
// StreamSink

// StreamSink aggregates a campaign in constant memory: per-trial
// efficiencies and wall times flow into stats.Sketch log-bucket
// histograms (exact moments and min/max, bucket-interpolated
// quantiles), breakdown categories into float sums folded in block
// order, and failure counts into integer sums. Its CampaignResult
// leaves Efficiencies nil and carries the sketches instead
// (CampaignResult.EfficiencySketch / WallTimeSketch); the result is
// bitwise deterministic for any worker count, but not bit-identical to
// the exact sink's (the summation tree differs). Memory is independent
// of the trial count — the sink that makes 10⁷+-trial campaigns fit.
type StreamSink struct {
	agg streamAgg

	mu   sync.Mutex
	free []*streamShard
}

// NewStreamSink returns an empty streaming sink.
func NewStreamSink() *StreamSink { return &StreamSink{agg: newStreamAgg()} }

// streamAgg is the merged aggregation state shared by the sink and its
// shards.
type streamAgg struct {
	eff       *stats.Sketch
	wall      *stats.Sketch
	breakdown Breakdown
	failures  []int64
	completed int
	scratch   int64
	trials    int
}

func newStreamAgg() streamAgg {
	return streamAgg{eff: stats.NewSketch(), wall: stats.NewSketch()}
}

func (a *streamAgg) consume(r *TrialResult) {
	a.eff.Observe(r.Efficiency)
	a.wall.Observe(r.WallTime)
	a.breakdown.Add(r.Breakdown)
	if a.failures == nil {
		a.failures = make([]int64, len(r.Failures))
	}
	for s, f := range r.Failures {
		a.failures[s] += int64(f)
	}
	if r.Completed {
		a.completed++
	}
	a.scratch += int64(r.ScratchRestarts)
	a.trials++
}

func (a *streamAgg) merge(o *streamAgg) error {
	if err := a.eff.Merge(o.eff); err != nil {
		return err
	}
	if err := a.wall.Merge(o.wall); err != nil {
		return err
	}
	a.breakdown.Add(o.breakdown)
	if a.failures == nil && o.failures != nil {
		a.failures = make([]int64, len(o.failures))
	}
	for s := range o.failures {
		a.failures[s] += o.failures[s]
	}
	a.completed += o.completed
	a.scratch += o.scratch
	a.trials += o.trials
	return nil
}

type streamShard struct{ agg streamAgg }

func (s *streamShard) Consume(trial int, r *TrialResult) { s.agg.consume(r) }

// Shard implements CampaignSink.
func (s *StreamSink) Shard() SinkShard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		sh := s.free[n-1]
		s.free = s.free[:n-1]
		sh.agg.eff.Reset()
		sh.agg.wall.Reset()
		sh.agg.breakdown = Breakdown{}
		for i := range sh.agg.failures {
			sh.agg.failures[i] = 0
		}
		sh.agg.completed, sh.agg.scratch, sh.agg.trials = 0, 0, 0
		return sh
	}
	return &streamShard{agg: newStreamAgg()}
}

// Merge implements CampaignSink.
func (s *StreamSink) Merge(shard SinkShard) error {
	sh, ok := shard.(*streamShard)
	if !ok {
		return fmt.Errorf("sim: StreamSink.Merge got foreign shard %T", shard)
	}
	if err := s.agg.merge(&sh.agg); err != nil {
		return err
	}
	s.mu.Lock()
	s.free = append(s.free, sh)
	s.mu.Unlock()
	return nil
}

// Result implements CampaignSink.
func (s *StreamSink) Result() (CampaignResult, error) {
	a := &s.agg
	if a.trials == 0 {
		return CampaignResult{}, fmt.Errorf("sim: stream sink consumed no trials")
	}
	out := CampaignResult{
		Efficiency:       a.eff.Summary(),
		WallTime:         a.wall.Summary(),
		Completed:        a.completed,
		Trials:           a.trials,
		EfficiencySketch: a.eff,
		WallTimeSketch:   a.wall,
	}
	n := float64(a.trials)
	out.MeanBreakdown = a.breakdown
	out.MeanBreakdown.Scale(1 / n)
	out.MeanFailures = make([]float64, len(a.failures))
	for i, f := range a.failures {
		out.MeanFailures[i] = float64(f) / n
	}
	out.MeanScratchRestarts = float64(a.scratch) / n
	if total := out.MeanBreakdown.Total(); total > 0 {
		out.BreakdownShare = out.MeanBreakdown
		out.BreakdownShare.Scale(1 / total)
	}
	return out, nil
}

// Kind implements PortableSink.
func (s *StreamSink) Kind() string { return "stream" }

// streamState is the serialized StreamSink (bit-exact floats).
type streamState struct {
	Eff       *stats.Sketch `json:"eff"`
	Wall      *stats.Sketch `json:"wall"`
	Breakdown [6]uint64     `json:"breakdown"`
	Failures  []int64       `json:"failures"`
	Completed int           `json:"completed"`
	Scratch   int64         `json:"scratch"`
	Trials    int           `json:"trials"`
}

// MarshalState implements PortableSink.
func (s *StreamSink) MarshalState() ([]byte, error) {
	b := s.agg.breakdown
	return json.Marshal(streamState{
		Eff: s.agg.eff, Wall: s.agg.wall,
		Breakdown: [6]uint64{
			floatBits(b.UsefulCompute), floatBits(b.LostCompute),
			floatBits(b.CheckpointOK), floatBits(b.CheckpointFail),
			floatBits(b.RestartOK), floatBits(b.RestartFail),
		},
		Failures:  s.agg.failures,
		Completed: s.agg.completed,
		Scratch:   s.agg.scratch,
		Trials:    s.agg.trials,
	})
}

// UnmarshalState implements PortableSink.
func (s *StreamSink) UnmarshalState(data []byte) error {
	var st streamState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Eff == nil || st.Wall == nil {
		return fmt.Errorf("sim: stream sink state lacks sketches")
	}
	if st.Trials < 0 || st.Completed < 0 || st.Completed > st.Trials || st.Scratch < 0 || hasNegative(st.Failures) {
		return fmt.Errorf("sim: stream sink state has inconsistent counts (trials %d, completed %d, scratch restarts %d, failures %v)",
			st.Trials, st.Completed, st.Scratch, st.Failures)
	}
	for _, sk := range []*stats.Sketch{st.Eff, st.Wall} {
		if n := sk.N() + int64(sk.Rejected()); n != int64(st.Trials) {
			return fmt.Errorf("sim: stream sink state: a sketch holds %d observations for %d trials", n, st.Trials)
		}
	}
	s.agg = streamAgg{
		eff: st.Eff, wall: st.Wall,
		breakdown: Breakdown{
			UsefulCompute: bitsFloat(st.Breakdown[0]), LostCompute: bitsFloat(st.Breakdown[1]),
			CheckpointOK: bitsFloat(st.Breakdown[2]), CheckpointFail: bitsFloat(st.Breakdown[3]),
			RestartOK: bitsFloat(st.Breakdown[4]), RestartFail: bitsFloat(st.Breakdown[5]),
		},
		failures:  st.Failures,
		completed: st.Completed,
		scratch:   st.Scratch,
		trials:    st.Trials,
	}
	return nil
}

// stateShape reports the trial and level counts of the merged state,
// which checkpoint loading checks against the file's header.
func (s *StreamSink) stateShape() (trials, levels int) { return s.agg.trials, len(s.agg.failures) }

// MergeSink implements PortableSink.
func (s *StreamSink) MergeSink(o CampaignSink) error {
	os, ok := o.(*StreamSink)
	if !ok {
		return fmt.Errorf("sim: StreamSink.MergeSink got %T", o)
	}
	return s.agg.merge(&os.agg)
}
