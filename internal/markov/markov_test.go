package markov

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestNoFailures(t *testing.T) {
	c := &Chain{
		Segments: []Segment{
			{Kind: Compute, Duration: 5},
			{Kind: Checkpoint, Duration: 1, Level: 1},
		},
		Rates:       []float64{0},
		RestartTime: []float64{2},
	}
	got, err := c.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("failure-free period = %v, want 6", got)
	}
	if c.Work() != 5 {
		t.Fatalf("work = %v", c.Work())
	}
}

func TestSingleSegmentScratchRestart(t *testing.T) {
	// One compute segment, free restart, rollback to start:
	// E[T] = (e^{λd} − 1)/λ.
	lam, d := 0.1, 7.0
	c := &Chain{
		Segments:    []Segment{{Kind: Compute, Duration: d}},
		Rates:       []float64{lam},
		RestartTime: []float64{0},
	}
	got, err := c.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Expm1(lam*d) / lam
	if !almost(got, want, 1e-12) {
		t.Fatalf("scratch restart = %v, want %v", got, want)
	}
}

func TestMatchesDalyFormula(t *testing.T) {
	// One compute segment with restart cost R and retry-on-failure:
	// E[T] = e^{λR}·(e^{λd} − 1)/λ — exactly Daly's per-segment form.
	lam, d, R := 1.0/60, 12.0, 4.0
	c := &Chain{
		Segments:    []Segment{{Kind: Compute, Duration: d}},
		Rates:       []float64{lam},
		RestartTime: []float64{R},
		Policy:      Retry,
	}
	got, err := c.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(lam*R) * math.Expm1(lam*d) / lam
	if !almost(got, want, 1e-12) {
		t.Fatalf("Daly form = %v, want %v", got, want)
	}
}

func TestTwoSegmentsEqualOneCombined(t *testing.T) {
	// Without an intermediate committed checkpoint, compute d then
	// checkpoint δ behaves exactly like one segment of d+δ.
	lam := 0.05
	split := &Chain{
		Segments: []Segment{
			{Kind: Compute, Duration: 8},
			{Kind: Checkpoint, Duration: 2, Level: 1},
		},
		Rates:       []float64{lam},
		RestartTime: []float64{0},
	}
	merged := &Chain{
		Segments:    []Segment{{Kind: Compute, Duration: 10}},
		Rates:       []float64{lam},
		RestartTime: []float64{0},
	}
	a, err := split.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	b, err := merged.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, b, 1e-12) {
		t.Fatalf("split %v != merged %v", a, b)
	}
}

func TestCommittedCheckpointReducesTime(t *testing.T) {
	// A committed mid-period checkpoint must strictly reduce expected
	// time versus the same period without it (rollback shrinks), as
	// long as failures are frequent enough to outweigh its cost... use
	// a free checkpoint to make it unconditional.
	lam := 0.1
	with := &Chain{
		Segments: []Segment{
			{Kind: Compute, Duration: 6},
			{Kind: Checkpoint, Duration: 1e-9, Level: 1},
			{Kind: Compute, Duration: 6},
		},
		Rates:       []float64{lam},
		RestartTime: []float64{0},
	}
	without := &Chain{
		Segments:    []Segment{{Kind: Compute, Duration: 12.000000001}},
		Rates:       []float64{lam},
		RestartTime: []float64{0},
	}
	a, _ := with.ExpectedPeriodTime()
	b, _ := without.ExpectedPeriodTime()
	if !(a < b) {
		t.Fatalf("checkpoint did not help: %v vs %v", a, b)
	}
	// And analytically: two independent 6-minute scratch stages.
	want := 2*math.Expm1(lam*6)/lam + 1e-9
	if !almost(a, want, 1e-6) {
		t.Fatalf("with-checkpoint = %v, want ~%v", a, want)
	}
}

func TestSeverityRouting(t *testing.T) {
	// Severity-2 failures must roll past a level-1 checkpoint back to
	// period start; severity-1 failures resume after it.
	mk := func(r1, r2 float64) *Chain {
		return &Chain{
			Segments: []Segment{
				{Kind: Compute, Duration: 5},
				{Kind: Checkpoint, Duration: 0.5, Level: 1},
				{Kind: Compute, Duration: 5},
				{Kind: Checkpoint, Duration: 1, Level: 2},
			},
			Rates:       []float64{r1, r2},
			RestartTime: []float64{0.5, 2},
			Policy:      Retry,
		}
	}
	onlySev1, err := mk(0.02, 0).ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	onlySev2, err := mk(0, 0.02).ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	if !(onlySev2 > onlySev1) {
		t.Fatalf("severity-2 failures should cost more: %v vs %v", onlySev2, onlySev1)
	}
}

func TestEscalateAtLeastRetry(t *testing.T) {
	for _, lam := range []float64{0.01, 0.05, 0.2} {
		base := Chain{
			Segments: []Segment{
				{Kind: Compute, Duration: 4},
				{Kind: Checkpoint, Duration: 0.3, Level: 1},
				{Kind: Compute, Duration: 4},
				{Kind: Checkpoint, Duration: 2, Level: 2},
			},
			Rates:       []float64{lam * 0.8, lam * 0.2},
			RestartTime: []float64{0.3, 2},
		}
		retry := base
		retry.Policy = Retry
		esc := base
		esc.Policy = Escalate
		a, err := retry.ExpectedPeriodTime()
		if err != nil {
			t.Fatal(err)
		}
		b, err := esc.ExpectedPeriodTime()
		if err != nil {
			t.Fatal(err)
		}
		if !(b >= a) {
			t.Fatalf("λ=%v: escalate %v < retry %v", lam, b, a)
		}
	}
}

func TestValidation(t *testing.T) {
	good := Chain{
		Segments:    []Segment{{Kind: Compute, Duration: 1}},
		Rates:       []float64{0.1},
		RestartTime: []float64{1},
	}
	bads := map[string]func(*Chain){
		"no segments":    func(c *Chain) { c.Segments = nil },
		"no rates":       func(c *Chain) { c.Rates = nil },
		"short restarts": func(c *Chain) { c.Rates = []float64{0.1, 0.1} },
		"neg rate":       func(c *Chain) { c.Rates = []float64{-1} },
		"nan rate":       func(c *Chain) { c.Rates = []float64{math.NaN()} },
		"zero duration":  func(c *Chain) { c.Segments[0].Duration = 0 },
		"inf duration":   func(c *Chain) { c.Segments[0].Duration = math.Inf(1) },
		"bad ckpt level": func(c *Chain) { c.Segments[0] = Segment{Kind: Checkpoint, Duration: 1, Level: 9} },
		// A restart of −1 used to give a period below its failure-free
		// time, and NaN a NaN period, both with a nil error.
		"neg restart": func(c *Chain) { c.RestartTime = []float64{-1} },
		"nan restart": func(c *Chain) { c.RestartTime = []float64{math.NaN()} },
		"inf restart": func(c *Chain) { c.RestartTime = []float64{math.Inf(1)} },
		"neg unused restart": func(c *Chain) {
			c.RestartTime = []float64{1, -1} // a level above the top severity
		},
	}
	for name, mutate := range bads {
		c := good
		c.Segments = append([]Segment(nil), good.Segments...)
		mutate(&c)
		if _, err := c.ExpectedPeriodTime(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, r := range []float64{-1, math.NaN(), math.Inf(1)} {
		c := good
		c.RestartTime = []float64{r}
		if _, _, err := c.SegmentTerms([]float64{1}); err == nil {
			t.Errorf("SegmentTerms accepted restart time %v", r)
		}
	}
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, _, err := good.SegmentTerms([]float64{d}); err == nil {
			t.Errorf("SegmentTerms accepted duration %v", d)
		}
	}

	// A zero restart stays valid: unused levels use it.
	zero := Chain{
		Segments:    []Segment{{Kind: Compute, Duration: 1}, {Kind: Checkpoint, Duration: 0.1, Level: 1}},
		Rates:       []float64{0.1},
		RestartTime: []float64{0},
	}
	if got, err := zero.ExpectedPeriodTime(); err != nil || !(got > 1.1) {
		t.Errorf("zero restart: (%v, %v), want a period above its 1.1-minute failure-free time", got, err)
	}
}

// TestSegmentFloorsBoundPeriod checks the no-rollback floor of
// SegmentTerms against the forward sweep on random chains, finite and
// infinite periods alike: the sum of a period's segment floors, added in
// segment order, never exceeds the period's expected time — bit for bit,
// with no margin. It also pins F(d) >= d and the failure-free case
// F(d) = d with zero rollback coefficients.
func TestSegmentFloorsBoundPeriod(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	data := make([]byte, 400)
	var finite, inf int
	for seq := 0; seq < 300; seq++ {
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		chainSequence(data, func(c *Chain) {
			want, err := c.ExpectedPeriodTime()
			if err != nil || math.IsNaN(want) {
				// Overflowed prefix sums (Inf − Inf) yield NaN, which
				// every objective rejects: nothing to bound.
				return
			}
			durs := make([]float64, len(c.Segments))
			for k, s := range c.Segments {
				durs[k] = s.Duration
			}
			floors, _, err := c.SegmentTerms(durs)
			if err != nil {
				t.Fatalf("chain %+v: SegmentTerms: %v", *c, err)
			}
			var sum float64
			for k, f := range floors {
				if !(f >= durs[k]) {
					t.Fatalf("chain %+v: F(%v) = %v below the duration", *c, durs[k], f)
				}
				sum += f
			}
			if !(sum <= want) {
				t.Fatalf("chain %+v: floors sum to %v, above the period time %v", *c, sum, want)
			}
			if math.IsInf(want, 1) {
				inf++
			} else {
				finite++
			}
		})
	}
	if finite == 0 || inf == 0 {
		t.Fatalf("exercised %d finite and %d infinite periods; need both", finite, inf)
	}

	free := &Chain{Rates: []float64{0, 0}, RestartTime: []float64{1, 2}}
	got, coefs, err := free.SegmentTerms([]float64{0.5, 3})
	if err != nil || got[0] != 0.5 || got[1] != 3 {
		t.Fatalf("failure-free floors = (%v, %v), want [0.5 3]", got, err)
	}
	if !reflect.DeepEqual(coefs, [][]float64{{0, 0}, {0, 0}}) {
		t.Fatalf("failure-free rollback coefficients = %v, want zero rows", coefs)
	}
}

// TestSegmentTermsRebuildSweep checks SegmentTerms' rollback
// coefficients against the forward sweep on random chains: for every
// segment k of a finite period, F(d_k) + Σ_v c_v(d_k)·(prefix[k] −
// prefix[pos_v]) rebuilds the sweep's A_k up to rounding. It also pins
// non-negative coefficients, +Inf only where the floor is +Inf.
func TestSegmentTermsRebuildSweep(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	data := make([]byte, 400)
	var segments int
	for seq := 0; seq < 300; seq++ {
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		chainSequence(data, func(c *Chain) {
			durs := make([]float64, len(c.Segments))
			for k, seg := range c.Segments {
				durs[k] = seg.Duration
			}
			floors, coefs, err := c.SegmentTerms(durs)
			if err != nil {
				return
			}
			for k, row := range coefs {
				for v, cv := range row {
					if !(cv >= 0) || (math.IsInf(cv, 1) && !math.IsInf(floors[k], 1)) {
						t.Fatalf("chain %+v: c_%d(%v) = %v with F = %v", *c, v+1, durs[k], cv, floors[k])
					}
				}
			}
			var s Solver
			want, err := c.ExpectedPeriodTimeWith(&s)
			if lambda, _ := c.validateConstants(); lambda == 0 {
				return // failure-free: the sweep is skipped
			}
			if err != nil || math.IsNaN(want) || math.IsInf(want, 1) {
				return
			}
			L := len(c.Rates)
			for k := range c.Segments {
				ak := floors[k]
				for v, cv := range coefs[k] {
					ak += cv * (s.prefix[k] - s.prefix[s.posByLevel[k*L+v]])
				}
				got, next := s.prefix[k]+ak, s.prefix[k+1]
				if math.Abs(got-next) > 1e-12*next {
					t.Fatalf("chain %+v segment %d: rebuilt prefix %v, sweep %v", *c, k, got, next)
				}
				segments++
			}
		})
	}
	if segments == 0 {
		t.Fatal("no finite period exercised")
	}
}

func TestImpossiblePeriodIsInf(t *testing.T) {
	// Success probability of the restart underflows: expected time +Inf.
	c := &Chain{
		Segments:    []Segment{{Kind: Compute, Duration: 1e6}},
		Rates:       []float64{1},
		RestartTime: []float64{1e6},
	}
	got, err := c.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("impossible period = %v, want +Inf", got)
	}
}

// chainMonteCarlo simulates the chain's semantics directly and
// independently of both the analytic solver and the sim package.
func chainMonteCarlo(c *Chain, trials int, seed uint64) float64 {
	src := rand.New(rand.NewPCG(seed, 99))
	var lambda float64
	for _, r := range c.Rates {
		lambda += r
	}
	sampleSev := func() int {
		u := src.Float64() * lambda
		var acc float64
		for i, r := range c.Rates {
			acc += r
			if u <= acc {
				return i + 1
			}
		}
		return len(c.Rates)
	}
	top := len(c.Rates)
	var total float64
	for tr := 0; tr < trials; tr++ {
		var t float64
		// Rollback positions by level.
		resume := make([]int, top)
		k := 0
		for k < len(c.Segments) {
			d := c.Segments[k].Duration
			fail := src.ExpFloat64() / lambda
			if fail >= d {
				t += d
				if s := c.Segments[k]; s.Kind == Checkpoint {
					for u := 1; u <= s.Level; u++ {
						resume[u-1] = k + 1
					}
				}
				k++
				continue
			}
			t += fail
			sev := sampleSev()
			// Recovery.
			level := sev
			for {
				R := c.RestartTime[level-1]
				rf := math.Inf(1)
				if R > 0 {
					rf = src.ExpFloat64() / lambda
				}
				if rf >= R {
					t += R
					break
				}
				t += rf
				s2 := sampleSev()
				level = c.nextLevel(level, s2, top)
			}
			k = resume[level-1]
			// Rolling back invalidates nothing in the model's
			// semantics; resume positions stay as committed.
		}
		total += t
	}
	return total / float64(trials)
}

func TestMonteCarloAgreementRetry(t *testing.T) {
	c := &Chain{
		Segments: []Segment{
			{Kind: Compute, Duration: 3},
			{Kind: Checkpoint, Duration: 0.4, Level: 1},
			{Kind: Compute, Duration: 3},
			{Kind: Checkpoint, Duration: 0.4, Level: 1},
			{Kind: Compute, Duration: 3},
			{Kind: Checkpoint, Duration: 1.5, Level: 2},
		},
		Rates:       []float64{1.0 / 20, 1.0 / 80},
		RestartTime: []float64{0.4, 1.5},
		Policy:      Retry,
	}
	want, err := c.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	got := chainMonteCarlo(c, 300000, 7)
	if !almost(got, want, 0.01) {
		t.Fatalf("monte carlo %v vs analytic %v", got, want)
	}
}

func TestMonteCarloAgreementEscalate(t *testing.T) {
	c := &Chain{
		Segments: []Segment{
			{Kind: Compute, Duration: 2},
			{Kind: Checkpoint, Duration: 0.3, Level: 1},
			{Kind: Compute, Duration: 2},
			{Kind: Checkpoint, Duration: 2.0, Level: 2},
		},
		Rates:       []float64{1.0 / 8, 1.0 / 40},
		RestartTime: []float64{0.3, 2.0},
		Policy:      Escalate,
	}
	want, err := c.ExpectedPeriodTime()
	if err != nil {
		t.Fatal(err)
	}
	got := chainMonteCarlo(c, 300000, 11)
	if !almost(got, want, 0.015) {
		t.Fatalf("monte carlo %v vs analytic %v", got, want)
	}
}

func TestRecoveryAbsorptionSumsToOne(t *testing.T) {
	c := &Chain{
		Segments: []Segment{
			{Kind: Compute, Duration: 1},
		},
		Rates:       []float64{0.1, 0.05, 0.02},
		RestartTime: []float64{0.5, 1, 4},
		Policy:      Escalate,
	}
	recs := c.recoveriesInto(&Solver{}, 0.17)
	for u, r := range recs {
		var sum float64
		for _, a := range r.absorb {
			sum += a
		}
		if !almost(sum, 1, 1e-9) {
			t.Errorf("level %d absorption sums to %v", u+1, sum)
		}
		if r.time <= 0 {
			t.Errorf("level %d recovery time %v", u+1, r.time)
		}
	}
}

func TestPeriodTimeAtLeastFailureFree(t *testing.T) {
	f := func(lamRaw, dRaw uint8) bool {
		lam := 0.001 + float64(lamRaw)/1000 // 0.001..0.256
		d := 1 + float64(dRaw%20)
		c := &Chain{
			Segments: []Segment{
				{Kind: Compute, Duration: d},
				{Kind: Checkpoint, Duration: 0.5, Level: 1},
			},
			Rates:       []float64{lam},
			RestartTime: []float64{0.5},
		}
		got, err := c.ExpectedPeriodTime()
		if err != nil {
			return false
		}
		return got >= d+0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheaperRestartsNeverHurt(t *testing.T) {
	mk := func(r float64) *Chain {
		return &Chain{
			Segments: []Segment{
				{Kind: Compute, Duration: 5},
				{Kind: Checkpoint, Duration: 1, Level: 2},
			},
			Rates:       []float64{0.05, 0.01},
			RestartTime: []float64{r, r * 4},
			Policy:      Retry,
		}
	}
	f := func(rRaw uint8) bool {
		r := 0.1 + float64(rRaw)/64
		a, err1 := mk(r).ExpectedPeriodTime()
		b, err2 := mk(r * 1.5).ExpectedPeriodTime()
		if err1 != nil || err2 != nil {
			return false
		}
		return b >= a-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
