// Package clocktest holds test-only clocks. Heap is the original
// container/heap virtual clock, kept as a reference oracle: the timing
// wheel behind clock.Virtual replaced it on the hot path, and the
// differential tests drive random schedules through both engines —
// raw timers in internal/clock, the whole resolver stack in
// internal/recursive — and require identical firing order, Now()
// observations, and counter totals. Do not modify its semantics: it
// pins the contract the wheel must honor.
package clocktest

import (
	"container/heap"
	"time"

	"repro/internal/clock"
)

// Heap is the heap-backed deterministic simulated clock (the pre-wheel
// Virtual). The zero value is not usable; call NewHeap.
//
// Fired and canceled events are recycled through a free list, and the heap
// is compacted when more than half of it is dead timers, so multi-hour
// runs with millions of short-lived timers stay allocation- and
// memory-flat.
type Heap struct {
	now     time.Time
	heap    refEventHeap
	seq     uint64 // tiebreaker for events at the same instant
	dead    int    // canceled events still sitting in the heap
	free    []*refEvent
	fired   int64 // live events executed
	stopped int64 // timers canceled before firing
}

var _ clock.Clock = (*Heap)(nil)

// NewHeap returns a heap-backed virtual clock starting at start.
func NewHeap(start time.Time) *Heap {
	return &Heap{now: start}
}

// refEvent is a scheduled callback f(arg). Events are pooled; gen
// distinguishes the timer a caller holds from a later reuse of the same
// struct.
type refEvent struct {
	at   time.Time
	seq  uint64
	f    func(any)
	arg  any
	dead bool
	gen  uint32
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Now implements clock.Clock.
func (v *Heap) Now() time.Time {
	return v.now
}

// allocEvent returns a recycled or fresh event.
func (v *Heap) allocEvent() *refEvent {
	if n := len(v.free); n > 0 {
		e := v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		return e
	}
	return &refEvent{}
}

// recycle returns a popped event to the free list, invalidating any
// TimerRef still pointing at it.
func (v *Heap) recycle(e *refEvent) {
	e.gen++
	e.f, e.arg = nil, nil
	e.dead = false
	v.free = append(v.free, e)
}

// schedule inserts a prepared event.
func (v *Heap) schedule(e *refEvent, d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.at = v.now.Add(d)
	e.seq = v.seq
	v.seq++
	heap.Push(&v.heap, e)
}

// AfterFuncRef implements clock.Clock. Negative durations fire at the
// current instant (still via the event loop, never synchronously).
func (v *Heap) AfterFuncRef(d time.Duration, f func(any), arg any) clock.TimerRef {
	e := v.allocEvent()
	e.f, e.arg = f, arg
	v.schedule(e, d)
	return clock.RefOf(heapTimer{e: e, gen: e.gen, v: v})
}

type heapTimer struct {
	e   *refEvent
	v   *Heap
	gen uint32
}

func (t heapTimer) Stop() bool {
	if t.e.gen != t.gen || t.e.dead {
		return false // already fired (and possibly recycled) or stopped
	}
	t.e.dead = true
	t.v.dead++
	t.v.stopped++
	t.v.compact()
	return true
}

// compact rebuilds the heap without dead events once they outnumber live
// ones, so canceled timers with far-future deadlines (resolver client
// timeouts, mostly) do not accumulate.
func (v *Heap) compact() {
	const minDead = 64 // below this the dead events are cheaper than a rebuild
	if v.dead < minDead || v.dead <= len(v.heap)/2 {
		return
	}
	live := v.heap[:0]
	for _, e := range v.heap {
		if e.dead {
			v.recycle(e)
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(v.heap); i++ {
		v.heap[i] = nil
	}
	v.heap = live
	v.dead = 0
	heap.Init(&v.heap)
}

// step runs the earliest pending event, if any, and reports whether one ran
// or was discarded.
func (v *Heap) step(limit time.Time, useLimit bool) bool {
	if len(v.heap) == 0 {
		return false
	}
	e := v.heap[0]
	if useLimit && e.at.After(limit) {
		v.now = limit
		return false
	}
	heap.Pop(&v.heap)
	if e.dead {
		v.dead--
		v.recycle(e)
		return true
	}
	f, arg := e.f, e.arg
	v.now = e.at
	v.fired++
	// Recycled before its callback runs, as in the wheel: a late Stop on
	// its timer sees the generation bump and reports "too late".
	v.recycle(e)
	f(arg)
	return true
}

// Run processes events until none remain.
func (v *Heap) Run() {
	for v.step(time.Time{}, false) {
	}
}

// RunUntil processes events with timestamps at or before deadline, then
// advances the clock to deadline.
func (v *Heap) RunUntil(deadline time.Time) {
	for v.step(deadline, true) {
	}
	if v.now.Before(deadline) {
		v.now = deadline
	}
}

// RunFor processes events for d of simulated time from the current instant.
func (v *Heap) RunFor(d time.Duration) {
	v.RunUntil(v.Now().Add(d))
}

// Pending returns the number of scheduled live (not canceled) events.
func (v *Heap) Pending() int {
	return len(v.heap) - v.dead
}

// Counters reports cumulative event-loop totals: events scheduled, events
// executed, and timers canceled before firing.
func (v *Heap) Counters() (scheduled, fired, stopped int64) {
	return int64(v.seq), v.fired, v.stopped
}
