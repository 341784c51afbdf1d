package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of the comparator, per (workload, end-to-end metric).
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// minPairs is the fewest base/head pairs that can support a gain claim.
const minPairs = 10

// bootstrapIters is the bootstrap resample count of the ratio interval,
// and bootstrapSeed seeds its resampling, so a comparison of the same
// result files always prints the same interval.
const (
	bootstrapIters = 2000
	bootstrapSeed  = 1
)

// MetricComparison compares one end-to-end metric of one workload
// across base and head invocations.
type MetricComparison struct {
	Metric string
	// BaseQ and HeadQ are each side's first quartile, median and third
	// quartile.
	BaseQ, HeadQ [3]float64
	// Ratio is median(head)/median(base); Lo and Hi bound its 95%
	// bootstrap interval.
	Ratio, Lo, Hi float64
	// Wins counts the pairs (base i, head i) in which head reads better.
	Wins, Pairs int
	Verdict     string
}

// compareMetric applies the comparison rule to one metric's values:
//
//   - regressed: head's median is worse than base's by more than the
//     bound;
//   - improved: head wins at least 9 of 10 pairs (over at least
//     minPairs pairs) and the medians differ by more than base's
//     interquartile distance;
//   - unresolved: base's own spread exceeds the bound (unless every
//     head run reads better than every base run), or head looks better
//     by more than the bound on too few pairs to claim it;
//   - unchanged: otherwise.
func compareMetric(spec MetricSpec, base, head []float64) MetricComparison {
	c := MetricComparison{Metric: spec.Name}
	c.BaseQ[0], c.BaseQ[1], c.BaseQ[2] = quartiles(base)
	c.HeadQ[0], c.HeadQ[1], c.HeadQ[2] = quartiles(head)
	bmed, hmed := c.BaseQ[1], c.HeadQ[1]
	c.Ratio = hmed / bmed
	c.Lo, c.Hi = bootstrapRatioCI(base, head, bootstrapSeed, bootstrapIters)
	lower := spec.Better == "lower"
	better := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	c.Pairs = min(len(base), len(head))
	for i := 0; i < c.Pairs; i++ {
		if better(head[i], base[i]) {
			c.Wins++
		}
	}
	// worse is head's relative change in the bad direction.
	worse := (hmed - bmed) / math.Abs(bmed)
	if !lower {
		worse = -worse
	}
	iqr := c.BaseQ[2] - c.BaseQ[0]
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	gain := worse < 0 && c.Wins*10 >= 9*c.Pairs && math.Abs(hmed-bmed) > iqr
	switch {
	case iqr/math.Abs(bmed) > spec.Bound && !allBetter:
		c.Verdict = Unresolved
	case worse > spec.Bound:
		c.Verdict = Regressed
	case gain && c.Pairs >= minPairs:
		c.Verdict = Improved
	case -worse > spec.Bound:
		c.Verdict = Unresolved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// loadResults reads DIR/<workload>.json for every spec workload present
// in each directory, keyed by workload in directory order.
func loadResults(spec *Spec, dirs []string) (map[string][]*Result, error) {
	out := map[string][]*Result{}
	for _, dir := range dirs {
		for _, w := range spec.Workloads {
			path := filepath.Join(dir, w.Name+".json")
			r, err := ReadResult(path)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				return nil, err
			}
			if r.Trace {
				return nil, fmt.Errorf("%s is a traced run; compare untraced runs", path)
			}
			out[w.Name] = append(out[w.Name], r)
		}
	}
	return out, nil
}

// sameCPU fails unless every result was measured on one CPU model.
func sameCPU(groups ...map[string][]*Result) error {
	cpus := map[string]bool{}
	for _, g := range groups {
		for _, rs := range g {
			for _, r := range rs {
				cpus[r.Machine.CPU] = true
			}
		}
	}
	if len(cpus) > 1 {
		return fmt.Errorf("refusing to compare results from different CPU models: %s", strings.Join(sortedKeys(cpus), " | "))
	}
	return nil
}

func failedFrac(rs []*Result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// Compare reads base and head invocation directories (written by
// `mlbench -out`), compares every end-to-end metric of every workload
// under the spec's bounds, and writes one row per (workload, metric)
// plus a summary row per workload. It returns ok=false when a metric
// regressed, a workload's failed share rose, base and head disagree on
// the outputs of a seed they both ran, or either side lacks results for
// a workload or values of a metric — a run that crashed writes no result
// and must not pass for one that was not compared. Results from
// different CPU models are an error.
func Compare(w io.Writer, spec *Spec, baseDirs, headDirs []string) (ok bool, err error) {
	base, err := loadResults(spec, baseDirs)
	if err != nil {
		return false, err
	}
	head, err := loadResults(spec, headDirs)
	if err != nil {
		return false, err
	}
	if err := sameCPU(base, head); err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "%-15s %-13s %-30s %-30s %-26s %-6s %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "head/base [95% CI]", "wins", "verdict")
	var summary []string
	for _, wl := range spec.Workloads {
		b, h := base[wl.Name], head[wl.Name]
		if len(b) == 0 || len(h) == 0 {
			ok = false
			summary = append(summary, fmt.Sprintf("%-15s MISSING: %d base and %d head results", wl.Name, len(b), len(h)))
			continue
		}
		var notes []string
		if bf, hf := failedFrac(b), failedFrac(h); hf > bf {
			ok = false
			notes = append(notes, fmt.Sprintf("FAILED SHARE ROSE %.3g -> %.3g", bf, hf))
		}
		for _, br := range b {
			for _, hr := range h {
				if br.Seed != hr.Seed {
					continue
				}
				if diff := diffOutputs("base", br.Digests, br.Values, hr.Digests, hr.Values); len(diff) > 0 {
					ok = false
					notes = append(notes, fmt.Sprintf("OUTPUTS DIFFER at seed %d: %s", br.Seed, diff[0]))
				}
			}
		}
		verdicts := map[string]int{}
		for _, ms := range spec.EndToEnd {
			bv, hv := values(b, ms.Name), values(h, ms.Name)
			if len(bv) != len(b) || len(hv) != len(h) {
				ok = false
				notes = append(notes, fmt.Sprintf("MISSING %s in %d base and %d head results", ms.Name, len(b)-len(bv), len(h)-len(hv)))
				continue
			}
			c := compareMetric(ms, bv, hv)
			verdicts[c.Verdict]++
			if c.Verdict == Regressed {
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-13s %-30s %-30s %-26s %-6s %s\n", wl.Name, ms.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.BaseQ[1], c.BaseQ[0], c.BaseQ[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.HeadQ[1], c.HeadQ[0], c.HeadQ[2]),
				fmt.Sprintf("%.4f [%.4f, %.4f]", c.Ratio, c.Lo, c.Hi),
				fmt.Sprintf("%d/%d", c.Wins, c.Pairs), c.Verdict)
		}
		var parts []string
		for _, v := range []string{Regressed, Unresolved, Improved, Unchanged} {
			if verdicts[v] > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", verdicts[v], v))
			}
		}
		line := fmt.Sprintf("%-15s %d base, %d head runs: %s", wl.Name, len(b), len(h), strings.Join(parts, ", "))
		if len(notes) > 0 {
			line += "; " + strings.Join(notes, "; ")
		}
		summary = append(summary, line)
	}
	fmt.Fprintln(w)
	for _, s := range summary {
		fmt.Fprintln(w, s)
	}
	return ok, nil
}

// values collects one metric across results.
func values(rs []*Result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// BaselineMetric is one metric's spread over a set of invocations.
type BaselineMetric struct {
	Unit    string  `json:"unit"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	IQRFrac float64 `json:"iqr_frac"`
	N       int     `json:"n"`
}

// BaselineDoc summarizes invocations of one commit on one machine.
type BaselineDoc struct {
	Machine   Machine                              `json:"machine"`
	Seeds     []uint64                             `json:"seeds"`
	Seconds   float64                              `json:"seconds"`
	Workloads map[string]map[string]BaselineMetric `json:"workloads"`
}

// Baseline summarizes invocation directories: per workload and
// end-to-end metric, the median, quartiles and interquartile spread.
func Baseline(spec *Spec, dirs []string) (*BaselineDoc, error) {
	rs, err := loadResults(spec, dirs)
	if err != nil {
		return nil, err
	}
	if err := sameCPU(rs); err != nil {
		return nil, err
	}
	doc := &BaselineDoc{Workloads: map[string]map[string]BaselineMetric{}}
	seeds := map[uint64]bool{}
	for _, wl := range spec.Workloads {
		results := rs[wl.Name]
		if len(results) == 0 {
			return nil, fmt.Errorf("no results for %s", wl.Name)
		}
		doc.Machine, doc.Seconds = results[0].Machine, results[0].Seconds
		ms := map[string]BaselineMetric{}
		for _, spec := range spec.EndToEnd {
			v := values(results, spec.Name)
			if len(v) == 0 {
				return nil, fmt.Errorf("%s: no %s", wl.Name, spec.Name)
			}
			q1, q2, q3 := quartiles(v)
			ms[spec.Name] = BaselineMetric{Unit: spec.Unit, Median: q2, Q1: q1, Q3: q3, IQRFrac: spread(v), N: len(v)}
		}
		doc.Workloads[wl.Name] = ms
		for _, r := range results {
			seeds[r.Seed] = true
		}
	}
	for s := range seeds {
		doc.Seeds = append(doc.Seeds, s)
	}
	sort.Slice(doc.Seeds, func(i, j int) bool { return doc.Seeds[i] < doc.Seeds[j] })
	return doc, nil
}
