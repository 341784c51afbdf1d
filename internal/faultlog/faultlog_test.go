package faultlog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/system"
)

func TestParseCSV(t *testing.T) {
	in := "time_minutes,severity\n12.5,1\n3.25,2\n97,1\n"
	entries, err := ParseCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Sorted by time.
	if entries[0].Time != 3.25 || entries[0].Severity != 2 {
		t.Fatalf("first entry = %+v", entries[0])
	}
	if entries[2].Time != 97 {
		t.Fatalf("last entry = %+v", entries[2])
	}
}

func TestParseCSVNoHeader(t *testing.T) {
	entries, err := ParseCSV(strings.NewReader("5,1\n8,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"time,severity\n5,abc\n", // bad severity mid-file
		"5,1\nbad,2\n",           // bad time after data
		"-5,1\n",                 // negative time
		"5,0\n",                  // severity < 1
		"5\n",                    // wrong field count
	}
	for _, in := range cases {
		if _, err := ParseCSV(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	entries := []Entry{{Time: 1.5, Severity: 1}, {Time: 9, Severity: 3}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != entries[0] || back[1] != entries[1] {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestAnalyze(t *testing.T) {
	entries := []Entry{
		{Time: 10, Severity: 1}, {Time: 20, Severity: 1},
		{Time: 30, Severity: 1}, {Time: 40, Severity: 2},
	}
	f, err := Analyze(entries, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if f.Counts[0] != 3 || f.Counts[1] != 1 {
		t.Fatalf("counts = %v", f.Counts)
	}
	if math.Abs(f.Rates[0]-0.03) > 1e-12 || math.Abs(f.Rates[1]-0.01) > 1e-12 {
		t.Fatalf("rates = %v", f.Rates)
	}
	if math.Abs(f.MTBF-25) > 1e-9 {
		t.Fatalf("mtbf = %v", f.MTBF)
	}
	// Duration defaults to the last entry.
	f2, err := Analyze(entries, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Duration != 40 {
		t.Fatalf("default duration = %v", f2.Duration)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, 2, 10); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := Analyze([]Entry{{Time: 1, Severity: 3}}, 2, 10); err == nil {
		t.Error("severity above classes accepted")
	}
	if _, err := Analyze([]Entry{{Time: 50, Severity: 1}}, 1, 10); err == nil {
		t.Error("entry outside window accepted")
	}
	if _, err := Analyze([]Entry{{Time: 1, Severity: 1}}, 0, 10); err == nil {
		t.Error("zero classes accepted")
	}
}

func TestApplyTo(t *testing.T) {
	template := &system.System{
		Name: "tpl", MTBF: 999, BaselineTime: 1440,
		Levels: []system.Level{
			{Checkpoint: 0.3, Restart: 0.3, SeverityProb: 0.5},
			{Checkpoint: 3, Restart: 3, SeverityProb: 0.5},
		},
	}
	f := Fit{Duration: 100, Counts: []int{8, 2}, Rates: []float64{0.08, 0.02}, MTBF: 10}
	sys, err := f.ApplyTo(template)
	if err != nil {
		t.Fatal(err)
	}
	if sys.MTBF != 10 {
		t.Fatalf("mtbf = %v", sys.MTBF)
	}
	if math.Abs(sys.Levels[0].SeverityProb-0.8) > 1e-12 {
		t.Fatalf("severity probs = %+v", sys.Levels)
	}
	if template.MTBF != 999 {
		t.Fatal("template mutated")
	}
	// Level-count mismatch rejected.
	short := Fit{Rates: []float64{0.1}}
	if _, err := short.ApplyTo(template); err == nil {
		t.Error("mismatched fit accepted")
	}
}

func TestInterarrivals(t *testing.T) {
	entries := []Entry{{Time: 5, Severity: 1}, {Time: 8, Severity: 1}, {Time: 20, Severity: 2}}
	got := Interarrivals(entries)
	want := []float64{5, 3, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interarrivals = %v", got)
		}
	}
}

func sampleLaw(t *testing.T, law dist.Sampler, n int, seed uint64) []float64 {
	t.Helper()
	src := rand.New(rand.NewPCG(seed, 17))
	out := make([]float64, n)
	for i := range out {
		out[i] = law.Sample(src)
	}
	return out
}

func TestExponentialGoodness(t *testing.T) {
	e, _ := dist.NewExponential(0.1)
	cv2, err := ExponentialGoodness(sampleLaw(t, e, 20000, 9))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv2-1) > 0.05 {
		t.Fatalf("exponential cv² = %v, want ~1", cv2)
	}
	w, _ := dist.NewWeibull(10, 0.6)
	cv2w, err := ExponentialGoodness(sampleLaw(t, w, 20000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !(cv2w > 1.5) {
		t.Fatalf("bursty weibull cv² = %v, want >> 1", cv2w)
	}
	if _, err := ExponentialGoodness([]float64{1}); err == nil {
		t.Error("single sample accepted")
	}
}

func TestEndToEndLogToSystem(t *testing.T) {
	// Generate a synthetic two-severity log, round-trip through CSV,
	// and check the fitted system is close to the generator.
	src := rand.New(rand.NewPCG(3, 3))
	e1, _ := dist.NewExponential(1.0 / 30) // severity 1
	e2, _ := dist.NewExponential(1.0 / 90) // severity 2
	var entries []Entry
	for sev, law := range map[int]dist.Sampler{1: e1, 2: e2} {
		t0 := 0.0
		for {
			t0 += law.Sample(src)
			if t0 > 50000 {
				break
			}
			entries = append(entries, Entry{Time: t0, Severity: sev})
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, entries); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := Analyze(parsed, 2, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rates[0]-1.0/30)/(1.0/30) > 0.1 {
		t.Fatalf("severity-1 rate = %v", fit.Rates[0])
	}
	if math.Abs(fit.Rates[1]-1.0/90)/(1.0/90) > 0.1 {
		t.Fatalf("severity-2 rate = %v", fit.Rates[1])
	}
	// Aggregate inter-arrivals should look exponential.
	cv2, err := ExponentialGoodness(Interarrivals(parsed))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv2-1) > 0.1 {
		t.Fatalf("merged Poisson processes cv² = %v", cv2)
	}
}

func TestTallyAgreesWithCounts(t *testing.T) {
	entries := []Entry{
		{Time: 5, Severity: 1},
		{Time: 9, Severity: 3},
		{Time: 20, Severity: 1},
		{Time: 31, Severity: 2},
		{Time: 44, Severity: 1},
	}
	fit, err := Analyze(entries, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Metrics == nil {
		t.Fatal("fit carries no metrics registry")
	}
	snap := fit.Metrics.Snapshot()
	if got := snap.Counter("faultlog_failures_total"); got != uint64(len(entries)) {
		t.Errorf("counter family total = %d, want %d", got, len(entries))
	}
	var fromCounts int
	for sev, n := range fit.Counts {
		fromCounts += n
		got := fit.Metrics.Counter("faultlog_failures_total", "severity", fmt.Sprint(sev+1)).Value()
		if got != uint64(n) {
			t.Errorf("severity %d: counter %d != Counts %d", sev+1, got, n)
		}
	}
	if fromCounts != len(entries) {
		t.Errorf("Counts sum to %d", fromCounts)
	}
	h := fit.Metrics.Histogram("faultlog_interarrival_minutes")
	if h.Count() != uint64(len(entries)) {
		t.Errorf("inter-arrival samples = %d, want %d", h.Count(), len(entries))
	}
	// Inter-arrivals telescope: their sum is the last arrival time.
	if math.Abs(h.Sum()-44) > 1e-12 {
		t.Errorf("inter-arrival sum = %v, want 44", h.Sum())
	}
	if h.Min() != 4 || h.Max() != 13 {
		t.Errorf("inter-arrival min/max = %v/%v, want 4/13", h.Min(), h.Max())
	}
}

func TestTallyRejectsOutOfRangeSeverity(t *testing.T) {
	if _, err := Tally([]Entry{{Time: 1, Severity: 4}}, 3); err == nil {
		t.Fatal("severity above the class count accepted")
	}
}
