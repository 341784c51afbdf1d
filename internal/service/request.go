package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/obs/sidecar"
	"repro/internal/optimize"
	"repro/internal/pattern"
	"repro/internal/system"
)

// Request-supplied parameters are bounded so a single request cannot
// commandeer the daemon: the grid bounds cap the sweep candidate count
// and the body limit caps decode work.
const (
	maxBodyBytes  = 1 << 20
	maxTau0Points = 1024
	maxCountVals  = 64
	maxCountVal   = 4096
	maxLevels     = 16
	maxTimeoutMS  = 10 * 60 * 1000
	maxCandidates = 1e8
)

// apiError is an error with an HTTP status. Handlers map every failure
// to one; anything else is a 500.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func apiErrorf(status int, format string, args ...any) *apiError {
	return &apiError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...any) *apiError {
	return apiErrorf(http.StatusBadRequest, format, args...)
}

// LevelSpec mirrors the system JSON level schema (system/json.go).
type LevelSpec struct {
	CheckpointMinutes float64 `json:"checkpoint_minutes"`
	RestartMinutes    float64 `json:"restart_minutes"`
	SeverityProb      float64 `json:"severity_prob"`
}

// SystemSpec is an inline system description, for requests about
// machines that are not Table I rows.
type SystemSpec struct {
	Name            string      `json:"name,omitempty"`
	MTBFMinutes     float64     `json:"mtbf_minutes"`
	BaselineMinutes float64     `json:"baseline_minutes"`
	Levels          []LevelSpec `json:"levels"`
}

// Grid overrides the optimizer search grid.
type Grid struct {
	// Tau0Points is the τ0 grid resolution (0 = technique default).
	Tau0Points int `json:"tau0_points,omitempty"`
	// CountVals is the per-level count candidate set, strictly
	// ascending (empty = technique default).
	CountVals []int `json:"count_vals,omitempty"`
}

// PlanRequest asks for the optimal plan for system×technique×grid.
type PlanRequest struct {
	// System names a Table I system (exactly one of System /
	// SystemSpec must be set).
	System string `json:"system,omitempty"`
	// SystemSpec describes a custom system inline.
	SystemSpec *SystemSpec `json:"system_spec,omitempty"`
	// MTBFMinutes / PFSMinutes / BaselineMinutes optionally override
	// the named system's MTBF, top-level checkpoint cost, and baseline
	// time (the sensitivity-sweep axes). 0 = keep.
	MTBFMinutes     float64 `json:"mtbf_minutes,omitempty"`
	PFSMinutes      float64 `json:"pfs_minutes,omitempty"`
	BaselineMinutes float64 `json:"baseline_minutes,omitempty"`
	// Technique is the registered model name (see `mlckpt -list`).
	Technique string `json:"technique"`
	// Grid optionally overrides the sweep grid.
	Grid *Grid `json:"grid,omitempty"`
	// TimeoutMS bounds this request's compute time (0 = server
	// default). The sweep is canceled at the deadline and the request
	// answers 503.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// PlanJSON is the wire form of a pattern.Plan.
type PlanJSON struct {
	Tau0Minutes float64 `json:"tau0_minutes"`
	Counts      []int   `json:"counts"`
	Levels      []int   `json:"levels"`
}

// PredictionJSON is the wire form of a model.Prediction.
type PredictionJSON struct {
	ExpectedMinutes float64 `json:"expected_minutes"`
	Efficiency      float64 `json:"efficiency"`
}

// PlanResponse answers /v1/plan.
type PlanResponse struct {
	// Digest is the canonical cache key of the request; identical
	// requests always carry identical digests (and, by sweep
	// determinism, identical bytes).
	Digest    string         `json:"digest"`
	System    string         `json:"system"`
	Technique string         `json:"technique"`
	Plan      PlanJSON       `json:"plan"`
	Predicted PredictionJSON `json:"predicted"`
}

// PredictRequest asks for the model's prediction for a given plan.
type PredictRequest struct {
	PlanRequest
	Plan *PlanJSON `json:"plan"`
}

// PredictResponse answers /v1/predict.
type PredictResponse struct {
	System    string         `json:"system"`
	Technique string         `json:"technique"`
	Plan      PlanJSON       `json:"plan"`
	Predicted PredictionJSON `json:"predicted"`
}

// SimulateRequest asks for a campaign-backed estimate of a plan.
type SimulateRequest struct {
	PredictRequest
	// Trials is the campaign size (default 200, capped by the server's
	// -max-trials).
	Trials int `json:"trials,omitempty"`
	// Seed is the campaign base seed (default 1). Seed derivation
	// matches the mlckpt CLI, so results are comparable.
	Seed uint64 `json:"seed,omitempty"`
	// Stream switches the response to newline-delimited JSON progress
	// records followed by a final result record.
	Stream bool `json:"stream,omitempty"`
}

// SummaryJSON is the wire form of a stats.Summary.
type SummaryJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// SimulateResponse answers /v1/simulate: the model's prediction and the
// simulator's estimate side by side.
type SimulateResponse struct {
	Digest    string   `json:"digest"`
	System    string   `json:"system"`
	Technique string   `json:"technique"`
	Plan      PlanJSON `json:"plan"`
	Trials    int      `json:"trials"`
	Seed      uint64   `json:"seed"`
	// Predicted is the technique's model prediction for the plan
	// (omitted when the model cannot evaluate it, e.g. a level count
	// beyond the model's domain).
	Predicted *PredictionJSON `json:"predicted,omitempty"`
	// Efficiency/WallTimeMinutes summarize the campaign.
	Efficiency      SummaryJSON `json:"efficiency"`
	WallTimeMinutes SummaryJSON `json:"wall_time_minutes"`
	// EfficiencyCI95 is the Student-t 95% half-width of the mean
	// efficiency (0 for fewer than 2 trials).
	EfficiencyCI95 float64 `json:"efficiency_ci95"`
	// Completed counts trials that finished under the wall-time cap.
	Completed int `json:"completed"`
}

// BatchRequest fans one request shape out over many systems/techniques.
type BatchRequest struct {
	Requests []PlanRequest `json:"requests"`
	// TimeoutMS bounds the whole batch (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItem is one /v1/batch result, in request order. Exactly one of
// Response / Error is set.
type BatchItem struct {
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
	Status   int             `json:"status,omitempty"`
}

// BatchResponse answers /v1/batch.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// decodeBody strictly decodes one JSON document into dst: unknown
// fields, trailing data, and bodies over maxBodyBytes are all 400s.
func decodeBody(r io.Reader, dst any) *apiError {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return badRequest("invalid request body: trailing data after JSON document")
	}
	return nil
}

// planSpec is a validated, canonicalized plan request: the resolved
// system (with overrides applied) plus the technique and grid. Its
// digest is the cache/coalescing key.
type planSpec struct {
	sys        *system.System
	technique  string
	tau0Points int
	countVals  []int
}

// finitePositive rejects NaN/±Inf and non-positive values.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// resolvePlan validates a PlanRequest and resolves it into a planSpec.
// All failures are client errors (400).
func resolvePlan(req PlanRequest) (*planSpec, *apiError) {
	if req.Technique == "" {
		return nil, badRequest("technique required (one of %v)", model.RegisteredNames())
	}
	if _, err := model.Describe(req.Technique); err != nil {
		return nil, badRequest("%v", err)
	}

	var sys *system.System
	switch {
	case req.System != "" && req.SystemSpec != nil:
		return nil, badRequest("set exactly one of system / system_spec, not both")
	case req.System != "":
		s, err := system.ByName(req.System)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		sys = s
	case req.SystemSpec != nil:
		s, aerr := req.SystemSpec.resolve()
		if aerr != nil {
			return nil, aerr
		}
		sys = s
	default:
		return nil, badRequest("set exactly one of system / system_spec")
	}

	for _, ov := range []struct {
		name string
		v    float64
	}{{"mtbf_minutes", req.MTBFMinutes}, {"pfs_minutes", req.PFSMinutes}, {"baseline_minutes", req.BaselineMinutes}} {
		if ov.v != 0 && !finitePositive(ov.v) {
			return nil, badRequest("%s override %v must be positive and finite", ov.name, ov.v)
		}
	}
	if req.MTBFMinutes != 0 {
		sys = sys.WithMTBF(req.MTBFMinutes)
	}
	if req.PFSMinutes != 0 {
		sys = sys.WithTopCost(req.PFSMinutes)
	}
	if req.BaselineMinutes != 0 {
		sys = sys.WithBaseline(req.BaselineMinutes)
	}
	if err := sys.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	if sys.NumLevels() > maxLevels {
		return nil, badRequest("system has %d levels, max %d", sys.NumLevels(), maxLevels)
	}

	sp := &planSpec{sys: sys, technique: req.Technique}
	if req.Grid != nil {
		if aerr := req.Grid.validate(); aerr != nil {
			return nil, aerr
		}
		sp.tau0Points = req.Grid.Tau0Points
		sp.countVals = append([]int(nil), req.Grid.CountVals...)
		// A grid on a technique that has no sweep (a closed form such
		// as daly's or benoit's) would be silently ignored, which is
		// worse than a 400.
		if sp.tau0Points != 0 || len(sp.countVals) != 0 {
			if _, ok := sp.sweep(); !ok {
				return nil, badRequest("technique %q does not take a grid", req.Technique)
			}
		}
	}
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		return nil, badRequest("timeout_ms %d outside [0, %d]", req.TimeoutMS, maxTimeoutMS)
	}
	return sp, nil
}

// resolve turns an inline spec into a validated system.
func (ss *SystemSpec) resolve() (*system.System, *apiError) {
	if len(ss.Levels) > maxLevels {
		return nil, badRequest("system_spec has %d levels, max %d", len(ss.Levels), maxLevels)
	}
	name := ss.Name
	if name == "" {
		name = "custom"
	}
	sys := &system.System{
		Name:         name,
		Source:       "request system_spec",
		MTBF:         ss.MTBFMinutes,
		BaselineTime: ss.BaselineMinutes,
	}
	for i, l := range ss.Levels {
		for _, f := range []float64{l.CheckpointMinutes, l.RestartMinutes, l.SeverityProb} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, badRequest("system_spec level %d has non-finite field", i+1)
			}
		}
		sys.Levels = append(sys.Levels, system.Level{
			Checkpoint:   l.CheckpointMinutes,
			Restart:      l.RestartMinutes,
			SeverityProb: l.SeverityProb,
		})
	}
	if math.IsNaN(sys.MTBF) || math.IsNaN(sys.BaselineTime) ||
		math.IsInf(sys.MTBF, 0) || math.IsInf(sys.BaselineTime, 0) {
		return nil, badRequest("system_spec has non-finite mtbf/baseline")
	}
	if err := sys.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	return sys, nil
}

func (g *Grid) validate() *apiError {
	if g.Tau0Points != 0 && (g.Tau0Points < 2 || g.Tau0Points > maxTau0Points) {
		return badRequest("grid.tau0_points %d outside [2, %d]", g.Tau0Points, maxTau0Points)
	}
	if len(g.CountVals) > maxCountVals {
		return badRequest("grid.count_vals has %d values, max %d", len(g.CountVals), maxCountVals)
	}
	for i, v := range g.CountVals {
		if v < 0 || v > maxCountVal {
			return badRequest("grid.count_vals[%d] = %d outside [0, %d]", i, v, maxCountVal)
		}
		if i > 0 && v <= g.CountVals[i-1] {
			return badRequest("grid.count_vals must be strictly ascending")
		}
	}
	return nil
}

// sweep returns a throwaway instance of the request's technique with
// the request's grid applied; ok is false when the technique does not
// sweep.
func (sp *planSpec) sweep() (t optimize.Tunable, ok bool) {
	tech, err := model.New(sp.technique)
	t, ok = tech.(optimize.Tunable)
	if err != nil || !ok {
		return nil, false
	}
	t.SweepSettings().SetSweepGrid(sp.tau0Points, sp.countVals)
	return t, true
}

// checkCandidates bounds the sweep search space so a hostile grid
// cannot pin a pool slot for hours; a technique that does not sweep
// passes. The estimate counts what the technique's sweep enumerates on
// its grid: for each level set it sweeps, every τ0 point × every count
// combination over the set's inner levels.
func (sp *planSpec) checkCandidates() *apiError {
	t, ok := sp.sweep()
	if !ok {
		return nil
	}
	st := t.SweepSettings()
	est := 0.0
	for _, set := range t.LevelSets(sp.sys) {
		n := float64(st.Tau0Points)
		for range set[1:] {
			n *= float64(len(st.CountVals))
		}
		est += n
	}
	if est > maxCandidates {
		return badRequest("search space ≈%.3g candidates exceeds the %g limit; shrink grid or levels", est, float64(maxCandidates))
	}
	return nil
}

// ff renders a float canonically: shortest form that round-trips, so
// equal values always digest equally.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func joinInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// systemParts canonicalizes every number that defines the resolved
// system, so overrides and inline specs that produce the same machine
// share a digest.
func (sp *planSpec) systemParts() []string {
	parts := []string{sp.sys.Name, ff(sp.sys.MTBF), ff(sp.sys.BaselineTime)}
	for _, l := range sp.sys.Levels {
		parts = append(parts, ff(l.Checkpoint), ff(l.Restart), ff(l.SeverityProb))
	}
	return parts
}

// digest is the canonical FNV cache/coalescing key for a plan request.
func (sp *planSpec) digest() string {
	parts := []string{"plan/v1", sp.technique, strconv.Itoa(sp.tau0Points), joinInts(sp.countVals)}
	parts = append(parts, sp.systemParts()...)
	return sidecar.ConfigDigest(parts...)
}

// simulateDigest is the cache/coalescing key for a simulate request.
func (sp *planSpec) simulateDigest(plan pattern.Plan, trials int, seed uint64) string {
	parts := []string{"sim/v1", sp.technique,
		ff(plan.Tau0), joinInts(plan.Counts), joinInts(plan.Levels),
		strconv.Itoa(trials), strconv.FormatUint(seed, 10)}
	parts = append(parts, sp.systemParts()...)
	return sidecar.ConfigDigest(parts...)
}

// parsePlan validates a request-supplied plan against the resolved
// system.
func (sp *planSpec) parsePlan(pj *PlanJSON) (pattern.Plan, *apiError) {
	if pj == nil {
		return pattern.Plan{}, badRequest("plan required")
	}
	if len(pj.Counts) > maxLevels || len(pj.Levels) > maxLevels {
		return pattern.Plan{}, badRequest("plan has more than %d levels", maxLevels)
	}
	for i, n := range pj.Counts {
		if n < 1 || n > maxCountVal {
			return pattern.Plan{}, badRequest("plan.counts[%d] = %d outside [1, %d]", i, n, maxCountVal)
		}
	}
	p := pattern.Plan{
		Tau0:   pj.Tau0Minutes,
		Counts: append([]int(nil), pj.Counts...),
		Levels: append([]int(nil), pj.Levels...),
	}
	if err := p.Validate(sp.sys); err != nil {
		return pattern.Plan{}, badRequest("%v", err)
	}
	return p, nil
}

func toPlanJSON(p pattern.Plan) PlanJSON {
	pj := PlanJSON{Tau0Minutes: p.Tau0, Counts: p.Counts, Levels: p.Levels}
	if pj.Counts == nil {
		pj.Counts = []int{}
	}
	if pj.Levels == nil {
		pj.Levels = []int{}
	}
	return pj
}
