package markov

import (
	"math"
	"math/rand/v2"
	"testing"
)

// byteSource hands out input bytes one at a time, then zeros.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// Value tables for generated chains. The large entries drive the
// solver's early exits: a 1e4-minute segment's success probability
// underflows to zero at the larger rates, and a 1e6-minute restart makes
// recovery impossible.
var (
	genRates     = []float64{0, 0.002, 0.05, 0.4}
	genRestarts  = []float64{0, 0.5, 3, 1e6}
	genDurations = []float64{0.25, 1, 2.5, 7, 1e4}
)

// chainSequence decodes data into a sequence of chains handed to fn one
// after another. Each step keeps a prefix of the previous chain's
// segments (often rewriting the rest of the same backing array in
// place) and appends a new tail, and now and then changes a rate, a
// restart time, the policy or the number of severities. Invalid chains
// (empty periods, out-of-range commit levels) are part of the sequence.
func chainSequence(data []byte, fn func(*Chain)) {
	src := byteSource(data)
	c := &Chain{}
	resize := func() {
		L := 1 + src.next()%3
		c.Rates = make([]float64, L)
		c.RestartTime = make([]float64, L+src.next()%2) // maybe a level above the top severity
		for i := range c.Rates {
			c.Rates[i] = genRates[src.next()%len(genRates)]
		}
		for i := range c.RestartTime {
			c.RestartTime[i] = genRestarts[src.next()%len(genRestarts)]
		}
	}
	resize()
	for step := 0; step < 64 && len(src) > 0; step++ {
		op := src.next()
		if op&1 != 0 {
			c.Rates[src.next()%len(c.Rates)] = genRates[src.next()%len(genRates)]
		}
		if op&2 != 0 {
			c.RestartTime[src.next()%len(c.RestartTime)] = genRestarts[src.next()%len(genRestarts)]
		}
		if op&4 != 0 {
			c.Policy = 1 - c.Policy
		}
		if op&8 != 0 && op&64 != 0 {
			resize()
		}
		keep := src.next() % (len(c.Segments) + 1)
		segs := c.Segments[:keep]
		if op&16 == 0 {
			segs = append([]Segment(nil), segs...) // a fresh backing array
		}
		for tail := src.next() % 8; tail > 0; tail-- {
			s := Segment{Kind: SegmentKind(src.next() % 2), Duration: genDurations[src.next()%len(genDurations)]}
			if s.Kind == Checkpoint {
				s.Level = 1 + src.next()%(len(c.RestartTime)+1) // one past the end is invalid
			}
			segs = append(segs, s)
		}
		c.Segments = segs
		fn(c)
	}
}

// reuseOutcome tallies what a sequence exercised.
type reuseOutcome struct{ solves, inf, errs int }

// checkReuse solves every chain of data's sequence twice — with one
// Solver reused across the whole sequence and with a fresh Solver — and
// fails unless the two agree bit for bit, errors included.
func checkReuse(t *testing.T, data []byte) reuseOutcome {
	t.Helper()
	var out reuseOutcome
	var reused Solver
	chainSequence(data, func(c *Chain) {
		got, gotErr := c.ExpectedPeriodTimeWith(&reused)
		want, wantErr := c.ExpectedPeriodTimeWith(&Solver{})
		if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("chain %+v: reused solver (%v, %v), fresh solver (%v, %v)", *c, got, gotErr, want, wantErr)
		}
		out.solves++
		if wantErr != nil {
			out.errs++
		} else if math.IsInf(want, 1) {
			out.inf++
		}
	})
	return out
}

// TestSolverReuseMatchesFresh runs random chain sequences whose
// neighbours share segment prefixes — with early exits, invalid chains
// and constant changes mixed in — through one reused Solver.
func TestSolverReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	var total reuseOutcome
	data := make([]byte, 400)
	for seq := 0; seq < 300; seq++ {
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		o := checkReuse(t, data)
		total.solves += o.solves
		total.inf += o.inf
		total.errs += o.errs
	}
	if total.inf == 0 || total.errs == 0 || total.inf+total.errs == total.solves {
		t.Fatalf("sequences exercised %+v; need finite, infinite and invalid chains", total)
	}
}

// TestSolverResumesAfterEarlyExit pins the two cases where the last
// solve stopped before the end of its period: the resumed solve may
// reuse only the A_k the stopped one computed.
func TestSolverResumesAfterEarlyExit(t *testing.T) {
	base := []Segment{
		{Kind: Compute, Duration: 1},
		{Kind: Checkpoint, Duration: 0.5, Level: 1},
	}
	cases := []struct {
		name        string
		first, next *Chain
	}{
		{
			name: "segment success underflows",
			first: &Chain{
				Segments:    append(append([]Segment(nil), base...), Segment{Kind: Compute, Duration: 1e4}),
				Rates:       []float64{0.3, 0.1},
				RestartTime: []float64{0.5, 2},
			},
			next: &Chain{
				Segments:    append(append([]Segment(nil), base...), Segment{Kind: Compute, Duration: 1}, Segment{Kind: Checkpoint, Duration: 2, Level: 2}),
				Rates:       []float64{0.3, 0.1},
				RestartTime: []float64{0.5, 2},
			},
		},
		{
			name: "recovery cannot finish",
			first: &Chain{
				Segments:    base,
				Rates:       []float64{0.5},
				RestartTime: []float64{1e6},
			},
			next: &Chain{
				Segments:    base,
				Rates:       []float64{0.5},
				RestartTime: []float64{3},
			},
		},
	}
	for _, tc := range cases {
		var s Solver
		if got, err := tc.first.ExpectedPeriodTimeWith(&s); err != nil || !math.IsInf(got, 1) {
			t.Fatalf("%s: first chain = (%v, %v), want +Inf", tc.name, got, err)
		}
		got, err := tc.next.ExpectedPeriodTimeWith(&s)
		want, werr := tc.next.ExpectedPeriodTime()
		if err != nil || werr != nil || math.IsInf(want, 1) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: resumed (%v, %v), fresh (%v, %v)", tc.name, got, err, want, werr)
		}
	}
}

// FuzzSolverReuse decodes raw bytes into a chain sequence (see
// chainSequence) and checks a reused Solver against fresh ones.
func FuzzSolverReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0, 0, 2, 0, 5, 1, 1, 7, 0, 3, 16, 2, 3, 1, 2, 0, 1, 1})
	f.Add([]byte{2, 1, 1, 3, 3, 0, 6, 1, 4, 0, 2, 1, 1, 1, 18, 3, 2, 0, 4, 1, 0, 1, 3, 2, 0, 2, 2, 1, 1})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReuse(t, data)
	})
}
