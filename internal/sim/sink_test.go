package sim

import (
	"math"
	"reflect"
	"testing"
)

// TestExactSinkMatchesLegacyAggregate: routing a campaign through an
// explicit ExactSink reproduces the default run bit for bit — the sink
// API pivot is invisible to exact callers.
func TestExactSinkMatchesLegacyAggregate(t *testing.T) {
	ref, err := goldenD7Campaign(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	camp := goldenD7Campaign(t)
	camp.Sink = NewExactSink()
	got, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Error("explicit ExactSink result differs from default run")
	}
}

// TestStreamSinkDeterministicAcrossWorkersAndBlocks: the streaming
// result — sketches included — is bitwise identical for any worker
// count. Changing Block is allowed to
// change bits (it changes the fold tree), but each Block value must be
// self-consistent across workers.
func TestStreamSinkDeterministicAcrossWorkersAndBlocks(t *testing.T) {
	for _, block := range []int{0, 1, 17} {
		var ref CampaignResult
		for i, workers := range []int{1, 2, 4, 16} {
			camp := goldenD7Campaign(t)
			camp.Trials = 100
			camp.Workers = workers
			camp.Block = block
			camp.Sink = NewStreamSink()
			res, err := camp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res
				continue
			}
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("block=%d workers=%d: stream result differs from workers=1", block, workers)
			}
		}
	}
}

// TestStreamSinkAgreesWithExact: the streaming aggregate must match the
// exact one in every count exactly, and in moments to float tolerance
// (the summation tree differs, so bits may not).
func TestStreamSinkAgreesWithExact(t *testing.T) {
	exact, err := goldenD7Campaign(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	camp := goldenD7Campaign(t)
	camp.Sink = NewStreamSink()
	stream, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stream.Trials != exact.Trials || stream.Completed != exact.Completed {
		t.Errorf("counts differ: stream %d/%d vs exact %d/%d",
			stream.Completed, stream.Trials, exact.Completed, exact.Trials)
	}
	if stream.Efficiency.N != exact.Efficiency.N ||
		stream.Efficiency.Min != exact.Efficiency.Min ||
		stream.Efficiency.Max != exact.Efficiency.Max {
		t.Errorf("efficiency N/Min/Max differ: %+v vs %+v", stream.Efficiency, exact.Efficiency)
	}
	close := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-12*(math.Abs(b)+1) {
			t.Errorf("%s: stream %v vs exact %v", name, a, b)
		}
	}
	close("Efficiency.Mean", stream.Efficiency.Mean, exact.Efficiency.Mean)
	close("Efficiency.Std", stream.Efficiency.Std, exact.Efficiency.Std)
	close("WallTime.Mean", stream.WallTime.Mean, exact.WallTime.Mean)
	close("MeanBreakdown.LostCompute", stream.MeanBreakdown.LostCompute, exact.MeanBreakdown.LostCompute)
	close("MeanScratchRestarts", stream.MeanScratchRestarts, exact.MeanScratchRestarts)
	if !reflect.DeepEqual(stream.MeanFailures, exact.MeanFailures) {
		// Failure counts are integers summed exactly; the per-trial means
		// divide the same integer by the same n → identical bits.
		t.Errorf("MeanFailures differ: %v vs %v", stream.MeanFailures, exact.MeanFailures)
	}
}

// TestEfficienciesOptIn pins satellite 1: only the exact-slice sink
// populates CampaignResult.Efficiencies; the stream sink leaves it nil
// and carries the sketches instead.
func TestEfficienciesOptIn(t *testing.T) {
	camp := goldenD7Campaign(t)
	camp.Trials = 40
	exact, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Efficiencies) != 40 {
		t.Errorf("exact sink: len(Efficiencies) = %d, want 40", len(exact.Efficiencies))
	}
	if exact.EfficiencySketch != nil || exact.WallTimeSketch != nil {
		t.Error("exact sink unexpectedly produced sketches")
	}
	camp.Sink = NewStreamSink()
	stream, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stream.Efficiencies != nil {
		t.Error("stream sink populated Efficiencies; the slice is opt-in via the exact sink")
	}
	if stream.EfficiencySketch == nil || stream.WallTimeSketch == nil {
		t.Fatal("stream sink produced no sketches")
	}
	if stream.EfficiencySketch.N() != 40 {
		t.Errorf("EfficiencySketch.N = %d, want 40", stream.EfficiencySketch.N())
	}
	q50 := stream.EfficiencySketch.Quantile(0.5)
	if q50 < stream.Efficiency.Min || q50 > stream.Efficiency.Max {
		t.Errorf("median estimate %v outside [min,max] = [%v,%v]",
			q50, stream.Efficiency.Min, stream.Efficiency.Max)
	}
}

// TestSinkStateRoundTrip: MarshalState → UnmarshalState reproduces both
// sinks' merged state bit-exactly — the property checkpoint resume
// depends on.
func TestSinkStateRoundTrip(t *testing.T) {
	for _, kind := range []string{"exact", "stream"} {
		camp := goldenD7Campaign(t)
		camp.Trials = 48
		sink, err := NewSink(kind)
		if err != nil {
			t.Fatal(err)
		}
		camp.Sink = sink
		want, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		state, err := sink.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		back, err := NewSink(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.UnmarshalState(state); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, err := back.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: state round trip changed the result", kind)
		}
	}
}

// TestNewSinkUnknownKind: loading a checkpoint with an unknown sink tag
// must fail loudly.
func TestNewSinkUnknownKind(t *testing.T) {
	if _, err := NewSink("exotic"); err == nil {
		t.Error("unknown sink kind accepted")
	}
}
