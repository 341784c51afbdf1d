package sim

import (
	"testing"
	"unsafe"

	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/system"
)

// memRange is a half-open byte range [lo, hi) of the heap.
type memRange struct{ lo, hi uintptr }

func rangeOf[T any](s []T) memRange {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return memRange{lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T))}
}

// mutableRanges lists the memory an engine may write while it runs a
// trial: every field of the struct between its two pads and the backing
// arrays of its timer table, failure counters, checkpoint stores and
// odometer digits.
func mutableRanges(e *Engine) []memRange {
	lo := uintptr(unsafe.Pointer(e))
	return []memRange{
		{lo + cachePad, lo + unsafe.Sizeof(*e) - cachePad},
		rangeOf(e.timers),
		rangeOf(e.failures),
		rangeOf(e.stores),
		rangeOf(e.digits),
	}
}

// distance is the number of bytes between two ranges (0 if they touch or
// overlap).
func distance(a, b memRange) uintptr {
	switch {
	case a.hi <= b.lo:
		return b.lo - a.hi
	case b.hi <= a.lo:
		return a.lo - b.hi
	}
	return 0
}

// TestEnginesDoNotShareCacheLines builds two engines back to back on one
// goroutine, as a campaign's setup would if it built every worker's
// engine itself, and checks that no byte one engine writes during a
// trial lies within cachePad bytes of a byte the other writes.
func TestEnginesDoNotShareCacheLines(t *testing.T) {
	var e Engine
	if first := unsafe.Offsetof(e.scn); first != cachePad {
		t.Fatalf("first field after the leading pad at offset %d, want %d", first, cachePad)
	}
	sys, err := system.ByName("D4")
	if err != nil {
		t.Fatal(err)
	}
	one := pattern.Plan{Tau0: 5, Levels: []int{2}}
	seed := rng.Campaign(1, "layout")
	var engs [2]*Engine
	for i := range engs {
		engs[i], err = NewEngine(Scenario{System: sys, Plan: one})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range engs {
		if _, err := e.Run(seed.Trial(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range mutableRanges(engs[0]) {
		for _, b := range mutableRanges(engs[1]) {
			if d := distance(a, b); d < cachePad {
				t.Errorf("engine state [%#x,%#x) and [%#x,%#x) are %d bytes apart, want >= %d",
					a.lo, a.hi, b.lo, b.hi, d, cachePad)
			}
		}
	}
}
