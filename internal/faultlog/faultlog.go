// Package faultlog ingests failure logs — the raw material behind every
// Table I row — and fits the failure model the checkpoint optimizers
// consume: per-severity exponential rates (the paper's assumption) and,
// for checking that assumption, a dispersion diagnostic of the
// inter-arrival distribution.
//
// The expected log format is CSV with two columns, an optional header,
// times in minutes since the observation window opened:
//
//	time_minutes,severity
//	12.5,1
//	97.0,1
//	311.2,3
package faultlog

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/system"
)

// Entry is one logged failure.
type Entry struct {
	// Time is minutes since the window opened.
	Time float64
	// Severity is the 1-based failure severity class.
	Severity int
}

// ParseCSV reads a failure log. A first line whose fields do not parse
// as numbers is treated as a header. Entries are returned sorted by
// time.
func ParseCSV(r io.Reader) ([]Entry, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.TrimLeadingSpace = true
	var out []Entry
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("faultlog: %w", err)
		}
		line++
		t, errT := strconv.ParseFloat(strings.TrimSpace(rec[0]), 64)
		s, errS := strconv.Atoi(strings.TrimSpace(rec[1]))
		if errT != nil || errS != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("faultlog: line %d: cannot parse %q", line, rec)
		}
		if t < 0 || s < 1 {
			return nil, fmt.Errorf("faultlog: line %d: invalid entry time=%v severity=%d", line, t, s)
		}
		out = append(out, Entry{Time: t, Severity: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// WriteCSV emits entries in the format ParseCSV reads.
func WriteCSV(w io.Writer, entries []Entry) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_minutes", "severity"}); err != nil {
		return err
	}
	for _, e := range entries {
		if err := cw.Write([]string{
			strconv.FormatFloat(e.Time, 'g', -1, 64),
			strconv.Itoa(e.Severity),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fit is the per-severity exponential fit of a log.
type Fit struct {
	// Duration is the observation window in minutes.
	Duration float64
	// Counts holds failures per severity (index 0 = severity 1),
	// derived from the Metrics counter family.
	Counts []int
	// Rates holds the MLE rates count/duration per severity.
	Rates []float64
	// MTBF is 1 / Σ rates.
	MTBF float64
	// Metrics is the tally registry behind the fit: the counter family
	// faultlog_failures_total{severity=...} and the
	// faultlog_interarrival_minutes histogram — the same aggregation
	// substrate the simulator's telemetry uses (internal/obs), so log
	// analysis and simulation metrics agree on one path.
	Metrics *obs.Registry
}

// Tally aggregates a (sorted) log into an obs registry: one
// faultlog_failures_total counter per severity class and the
// faultlog_interarrival_minutes histogram over aggregate inter-arrival
// times.
func Tally(entries []Entry, numSeverities int) (*obs.Registry, error) {
	reg := obs.NewRegistry()
	counters := make([]*obs.Counter, numSeverities)
	for s := range counters {
		counters[s] = reg.Counter("faultlog_failures_total", "severity", strconv.Itoa(s+1))
	}
	inter := reg.Histogram("faultlog_interarrival_minutes")
	prev := 0.0
	for _, e := range entries {
		if e.Severity < 1 || e.Severity > numSeverities {
			return nil, fmt.Errorf("faultlog: severity %d exceeds %d classes", e.Severity, numSeverities)
		}
		counters[e.Severity-1].Inc()
		inter.Observe(e.Time - prev)
		prev = e.Time
	}
	return reg, nil
}

// Analyze fits per-severity exponential rates. numSeverities bounds the
// severity classes (entries above it are rejected); duration is the
// observation window (0 = the last entry's time).
func Analyze(entries []Entry, numSeverities int, duration float64) (Fit, error) {
	if len(entries) == 0 {
		return Fit{}, errors.New("faultlog: empty log")
	}
	if numSeverities < 1 {
		return Fit{}, fmt.Errorf("faultlog: %d severities", numSeverities)
	}
	if duration == 0 {
		duration = entries[len(entries)-1].Time
	}
	if !(duration > 0) {
		return Fit{}, fmt.Errorf("faultlog: window %v must be positive", duration)
	}
	for _, e := range entries {
		if e.Time > duration {
			return Fit{}, fmt.Errorf("faultlog: entry at %v outside window %v", e.Time, duration)
		}
	}
	reg, err := Tally(entries, numSeverities)
	if err != nil {
		return Fit{}, err
	}
	f := Fit{Duration: duration, Counts: make([]int, numSeverities), Metrics: reg}
	for s := 1; s <= numSeverities; s++ {
		f.Counts[s-1] = int(reg.Counter("faultlog_failures_total", "severity", strconv.Itoa(s)).Value())
	}
	var total float64
	f.Rates = make([]float64, numSeverities)
	for i, c := range f.Counts {
		f.Rates[i] = float64(c) / duration
		total += f.Rates[i]
	}
	if total <= 0 {
		return Fit{}, errors.New("faultlog: no failures in window")
	}
	f.MTBF = 1 / total
	return f, nil
}

// ApplyTo returns a copy of the template system with the fitted MTBF and
// severity distribution installed. The template supplies the level costs
// and baseline time; its level count must match the fit.
func (f Fit) ApplyTo(template *system.System) (*system.System, error) {
	if template.NumLevels() != len(f.Rates) {
		return nil, fmt.Errorf("faultlog: fit has %d severities, template %d levels",
			len(f.Rates), template.NumLevels())
	}
	out := template.Clone()
	out.MTBF = f.MTBF
	var total float64
	for _, r := range f.Rates {
		total += r
	}
	for i := range out.Levels {
		out.Levels[i].SeverityProb = f.Rates[i] / total
	}
	out.Name = template.Name + "/fitted"
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Interarrivals converts a (sorted) log into aggregate inter-arrival
// times, the input for distribution fitting.
func Interarrivals(entries []Entry) []float64 {
	out := make([]float64, 0, len(entries))
	prev := 0.0
	for _, e := range entries {
		out = append(out, e.Time-prev)
		prev = e.Time
	}
	return out
}

// ExponentialGoodness reports a crude dispersion diagnostic: the squared
// coefficient of variation of the inter-arrivals. Exponential data gives
// ~1; values well above 1 indicate burstiness (Weibull k < 1), below 1
// regularity (k > 1).
func ExponentialGoodness(samples []float64) (cv2 float64, err error) {
	if len(samples) < 2 {
		return 0, errors.New("faultlog: need >= 2 samples")
	}
	var mean float64
	for _, x := range samples {
		mean += x
	}
	mean /= float64(len(samples))
	if mean <= 0 {
		return 0, errors.New("faultlog: non-positive mean")
	}
	var v float64
	for _, x := range samples {
		// Rounded so that no GOARCH fuses the square into the sum.
		v += float64((x - mean) * (x - mean))
	}
	v /= float64(len(samples) - 1)
	return v / (mean * mean), nil
}
