// Package eventq implements a general time-ordered event queue: a binary
// min-heap keyed on simulated time, with stable FIFO ordering for events
// scheduled at the same instant and O(log n) cancellation by handle.
//
// Events live in a slot arena inside the queue: Schedule reuses slots
// freed by Pop/Cancel/Reset, so a warmed-up queue performs no heap
// allocations no matter how many events flow through it.
//
// It is a standalone library. The simulator's trial engine never holds
// more than one pending event per source and keeps a fixed timer table
// instead (see internal/sim.Engine), which pops in the same (time, FIFO)
// order.
package eventq

import "errors"

// ErrEmpty is returned by Pop on an empty queue.
var ErrEmpty = errors.New("eventq: empty queue")

// Event is a scheduled occurrence in simulated time. Pop and Peek return
// events by value; the queue retains no reference to returned events.
type Event struct {
	Time float64 // simulated minutes
	Kind int     // caller-defined discriminator
	Data int     // caller-defined payload (e.g. failure severity)
}

// Handle cancels a scheduled event. Handles are single-use: once the
// event is popped or cancelled, the handle is dead and Cancel reports
// false (slot generations make stale handles harmless even after the
// slot is reused). The zero Handle is valid and dead.
type Handle struct {
	slot int32 // arena index + 1; 0 marks the invalid zero Handle
	gen  uint32
}

// slot is one arena entry.
type slot struct {
	ev  Event
	seq uint64 // tie-break: FIFO among equal times
	gen uint32 // incremented on release; pending handles must match
	pos int32  // heap position, -1 once removed
}

// Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulator drives one queue
// per trial from a single goroutine.
type Queue struct {
	slots []slot
	heap  []int32 // heap of arena indices
	free  []int32 // released arena indices
	seq   uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule inserts an event and returns a handle that can cancel it.
func (q *Queue) Schedule(t float64, kind, data int) Handle {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	}
	s := &q.slots[idx]
	s.ev = Event{Time: t, Kind: kind, Data: data}
	s.seq = q.seq
	q.seq++
	s.pos = int32(len(q.heap))
	q.heap = append(q.heap, idx)
	q.up(int(s.pos))
	return Handle{slot: idx + 1, gen: s.gen}
}

// Peek returns the earliest pending event without removing it. ok is
// false if the queue is empty.
func (q *Queue) Peek() (ev Event, ok bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	return q.slots[q.heap[0]].ev, true
}

// Pop removes and returns the earliest pending event.
func (q *Queue) Pop() (Event, error) {
	if len(q.heap) == 0 {
		return Event{}, ErrEmpty
	}
	idx := q.heap[0]
	ev := q.slots[idx].ev
	q.removeAt(0)
	return ev, nil
}

// Cancel removes a scheduled event. It reports whether the event was
// still pending (false if already popped or cancelled).
func (q *Queue) Cancel(h Handle) bool {
	if h.slot == 0 {
		return false
	}
	s := &q.slots[h.slot-1]
	if s.gen != h.gen || s.pos < 0 {
		return false
	}
	q.removeAt(int(s.pos))
	return true
}

// Reset discards all pending events but keeps allocated capacity, so a
// reused queue schedules without further heap growth.
func (q *Queue) Reset() {
	for _, idx := range q.heap {
		s := &q.slots[idx]
		s.pos = -1
		s.gen++
		q.free = append(q.free, idx)
	}
	q.heap = q.heap[:0]
}

// removeAt releases the slot at heap position i.
func (q *Queue) removeAt(i int) {
	last := len(q.heap) - 1
	idx := q.heap[i]
	q.heap[i] = q.heap[last]
	q.slots[q.heap[i]].pos = int32(i)
	q.heap = q.heap[:last]
	s := &q.slots[idx]
	s.pos = -1
	s.gen++ // kill outstanding handles before the slot is reused
	q.free = append(q.free, idx)
	if i < last {
		q.down(i)
		q.up(i)
	}
}

func (q *Queue) less(i, j int) bool {
	a, b := &q.slots[q.heap[i]], &q.slots[q.heap[j]]
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.slots[q.heap[i]].pos = int32(i)
	q.slots[q.heap[j]].pos = int32(j)
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
