package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress reports completion rate (units/sec) and, when the total is
// known, an ETA. Tick/Add are safe for concurrent use (campaign workers
// call them per trial); output is throttled to one line per
// progressPeriod.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	unit  string
	total int64
	done  int64
	start time.Time
	last  time.Time
	now   func() time.Time // test hook
}

// progressPeriod is the minimum time between progress lines.
const progressPeriod = 500 * time.Millisecond

// NewProgress returns a reporter writing to w. label prefixes every
// line; total is the expected number of units (0 = unknown: rate only,
// no ETA or percentage).
func NewProgress(w io.Writer, label string, total int64) *Progress {
	p := &Progress{
		w: w, label: label, unit: "trials", total: total, now: time.Now,
	}
	p.start = p.now()
	return p
}

// Tick records one completed unit, emitting a throttled progress line.
func (p *Progress) Tick() { p.Add(1) }

// Add records n completed units.
func (p *Progress) Add(n int64) {
	p.mu.Lock()
	p.done += n
	now := p.now()
	if now.Sub(p.last) < progressPeriod {
		p.mu.Unlock()
		return
	}
	p.last = now
	line := fmt.Sprintf("%s: %s", p.label, p.line(now))
	p.mu.Unlock()
	fmt.Fprintln(p.w, line)
}

// Finish emits a final summary line: the completed count (and 100 %
// when a total was known), the total elapsed time, and the mean rate
// over the whole run — no ETA.
func (p *Progress) Finish() {
	p.mu.Lock()
	now := p.now()
	elapsed := now.Sub(p.start)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(p.done) / s
	}
	var line string
	if p.total > 0 {
		// An aborted run reports its true percentage; a completed one
		// reads 100.0%.
		pct := 100 * float64(p.done) / float64(p.total)
		line = fmt.Sprintf("%s: done — %d/%d %s (%.1f%%) in %s, %.1f %s/s mean",
			p.label, p.done, p.total, p.unit, pct, elapsed.Round(time.Millisecond), rate, p.unit)
	} else {
		line = fmt.Sprintf("%s: done — %d %s in %s, %.1f %s/s mean",
			p.label, p.done, p.unit, elapsed.Round(time.Millisecond), rate, p.unit)
	}
	p.mu.Unlock()
	fmt.Fprintln(p.w, line)
}

// line renders the current progress (callers hold p.mu).
func (p *Progress) line(now time.Time) string {
	elapsed := now.Sub(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.done) / elapsed
	}
	if p.total > 0 {
		pct := 100 * float64(p.done) / float64(p.total)
		eta := "?"
		if rate > 0 && p.done <= p.total {
			eta = (time.Duration(float64(p.total-p.done) / rate * float64(time.Second))).Round(100 * time.Millisecond).String()
		}
		return fmt.Sprintf("%d/%d %s (%.1f%%) %.1f %s/s ETA %s",
			p.done, p.total, p.unit, pct, rate, p.unit, eta)
	}
	return fmt.Sprintf("%d %s, %.1f %s/s", p.done, p.unit, rate, p.unit)
}
