// Hierarchical timing wheel: the engine behind Virtual.
//
// The simulation's timers are overwhelmingly short (packet deliveries a
// few ms out, 5 s client timeouts, sub-hour TTL expiries), and most
// cancelable ones are stopped before they fire. A binary heap pays
// O(log n) with poor cache locality for every push, pop, and (amortized)
// cancel; the wheel pays O(1) for insert and cancel and walks occupancy
// bitmaps to skip empty time wholesale.
//
// Layout: 4 levels x 256 slots over a 2^20 ns (~1.05 ms) base tick.
//
//	level 0: 1 tick/slot    — covers ~268 ms
//	level 1: 256 ticks/slot — covers ~68.7 s
//	level 2: 2^16 ticks/slot — covers ~4.9 h
//	level 3: 2^24 ticks/slot — covers ~52 days
//
// Events beyond level 3's horizon sit in an unsorted overflow list and are
// re-placed each time the cursor crosses a level-3 horizon boundary.
//
// Windows are aligned (an event's level is chosen by tick XOR cursor, as
// in the kernel timer wheel), so a level's slots never wrap within one
// window and the per-level scan is a forward bitmap walk. Level-0 slots
// are one tick wide and kept sorted by (at, seq) with insertion sort;
// higher-level slots are unsorted and re-sorted for free when they
// cascade down, so the wheel fires events in exactly the heap's
// (at, seq) order — bit-for-bit identical simulation outcomes.
//
// Nodes are intrusive doubly-linked, recycled through a free list, and
// allocated in slabs of 64, so steady-state scheduling allocates nothing.
package clock

import (
	"math/bits"
	"time"
)

const (
	tickBits  = 20 // one tick = 2^20 ns ≈ 1.05 ms
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 4
	occWords  = numSlots / 64

	levelFree = -1        // node is on the free list (or firing)
	levelFar  = numLevels // node is on the far-overflow list

	eventSlab = 64 // nodes allocated per slab when the free list is dry
)

// horizonTicks is the span covered by all wheel levels; events further out
// than this from the cursor live on the far list.
const horizonTicks = int64(1) << (numLevels * slotBits)

// event is a scheduled callback f(arg). Nodes are pooled; gen
// distinguishes the timer a caller holds from a later reuse of the same
// struct.
type event struct {
	at         int64 // ns since the clock's start
	seq        uint64
	next, prev *event
	f          func(any)
	arg        any
	gen        uint32
	level      int8 // wheel level, levelFar, or levelFree
	slot       uint8
}

// Virtual is a deterministic simulated clock backed by a hierarchical
// timing wheel. The zero value is not usable; call NewVirtual.
type Virtual struct {
	start time.Time
	nowNs int64 // current time, ns since start
	cur   int64 // wheel cursor in ticks; always <= tick of every stored event
	seq   uint64
	live  int // scheduled, not yet fired or stopped

	slots [numLevels][numSlots]*event
	occ   [numLevels][occWords]uint64
	far   *event // doubly-linked, unsorted overflow beyond the wheel horizon

	free    *event // singly-linked (via next) recycled nodes
	fired   int64
	stopped int64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{start: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	return v.start.Add(time.Duration(v.nowNs))
}

// allocEvent returns a recycled or slab-fresh node.
func (v *Virtual) allocEvent() *event {
	if e := v.free; e != nil {
		v.free = e.next
		e.next = nil
		return e
	}
	slab := make([]event, eventSlab)
	for i := 1; i < eventSlab; i++ {
		slab[i].level = levelFree
		slab[i].next = v.free
		v.free = &slab[i]
	}
	slab[0].level = levelFree
	return &slab[0]
}

// recycle returns an unlinked node to the free list, invalidating any
// TimerRef still pointing at it.
func (v *Virtual) recycle(e *event) {
	e.gen++
	e.f, e.arg = nil, nil
	e.level = levelFree
	e.next = v.free
	e.prev = nil
	v.free = e
}

// schedule prepares and places a new event.
func (v *Virtual) schedule(e *event, d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.at = v.nowNs + int64(d)
	e.seq = v.seq
	v.seq++
	v.live++
	v.place(e)
}

// place links e into the wheel (or the far list) according to its deadline
// relative to the cursor; e must be unlinked.
func (v *Virtual) place(e *event) {
	tick := e.at >> tickBits
	diff := uint64(tick ^ v.cur)
	var level int
	switch {
	case diff < 1<<slotBits:
		level = 0
	case diff < 1<<(2*slotBits):
		level = 1
	case diff < 1<<(3*slotBits):
		level = 2
	case diff < 1<<(4*slotBits):
		level = 3
	default:
		e.level = levelFar
		e.prev = nil
		e.next = v.far
		if v.far != nil {
			v.far.prev = e
		}
		v.far = e
		return
	}
	slot := uint8(tick >> (level * slotBits) & slotMask)
	e.level = int8(level)
	e.slot = slot
	head := v.slots[level][slot]
	if level == 0 && head != nil && !eventLess(e, head) {
		// Level-0 slots stay sorted by (at, seq): a slot is one tick wide,
		// so same-instant FIFO needs only the seq order within it.
		p := head
		for p.next != nil && !eventLess(e, p.next) {
			p = p.next
		}
		e.next = p.next
		e.prev = p
		if p.next != nil {
			p.next.prev = e
		}
		p.next = e
		return
	}
	e.prev = nil
	e.next = head
	if head != nil {
		head.prev = e
	}
	v.slots[level][slot] = e
	v.occ[level][slot>>6] |= 1 << (slot & 63)
}

func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// unlink removes e from its slot or the far list.
func (v *Virtual) unlink(e *event) {
	if e.next != nil {
		e.next.prev = e.prev
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else if e.level == levelFar {
		v.far = e.next
	} else {
		l, s := e.level, e.slot
		v.slots[l][s] = e.next
		if e.next == nil {
			v.occ[l][s>>6] &^= 1 << (s & 63)
		}
	}
	e.next, e.prev = nil, nil
}

// nextOcc returns the smallest occupied slot index >= from at level, or -1.
func (v *Virtual) nextOcc(level, from int) int {
	if from >= numSlots {
		return -1
	}
	w := from >> 6
	word := v.occ[level][w] >> (from & 63) << (from & 63)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= occWords {
			return -1
		}
		word = v.occ[level][w]
	}
}

// cascade detaches every node in (level, slot) and re-places it relative
// to the (just advanced) cursor. Nodes land at a strictly lower level —
// or back on level 3 / the far list for clamped far-future deadlines.
func (v *Virtual) cascade(level, slot int) {
	e := v.slots[level][slot]
	v.slots[level][slot] = nil
	v.occ[level][slot>>6] &^= 1 << (uint(slot) & 63)
	for e != nil {
		n := e.next
		e.next, e.prev = nil, nil
		v.place(e)
		e = n
	}
}

// advance moves the cursor to the base of the next occupied window and
// cascades it toward level 0. With useBound, it refuses to advance past
// boundTick and reports false (nothing fires at or before the bound).
// Reports false when the wheel holds no events at all.
func (v *Virtual) advance(boundTick int64, useBound bool) bool {
	for level := 1; level < numLevels; level++ {
		pos := int(v.cur >> (level * slotBits) & slotMask)
		s := v.nextOcc(level, pos+1)
		if s < 0 {
			continue
		}
		base := v.cur&^(int64(1)<<(uint(level+1)*slotBits)-1) | int64(s)<<(level*slotBits)
		if useBound && base > boundTick {
			return false
		}
		v.cur = base
		v.cascade(level, s)
		return true
	}
	if v.far == nil {
		return false
	}
	// Cross one level-3 horizon and give the far list another chance to
	// land in the wheel. Events many horizons out (~52 days each) loop
	// through here once per horizon — a handful of re-places per sim-year.
	base := v.cur&^(horizonTicks-1) + horizonTicks
	if useBound && base > boundTick {
		return false
	}
	v.cur = base
	list := v.far
	v.far = nil
	for e := list; e != nil; {
		n := e.next
		e.next, e.prev = nil, nil
		v.place(e)
		e = n
	}
	return true
}

// peek returns the earliest pending event without unlinking it, advancing
// the cursor (and cascading) as needed. Returns nil if the wheel is empty
// or (with useBound) if nothing is due at or before the bound.
func (v *Virtual) peek(boundTick int64, useBound bool) *event {
	for {
		if s := v.nextOcc(0, int(v.cur&slotMask)); s >= 0 {
			return v.slots[0][s]
		}
		if !v.advance(boundTick, useBound) {
			return nil
		}
	}
}

// AfterFuncRef implements Clock with a pooled node and a TimerRef held by
// value: zero allocations per timer. Negative durations fire at the
// current instant (still via the event loop, never synchronously).
func (v *Virtual) AfterFuncRef(d time.Duration, f func(any), arg any) TimerRef {
	e := v.allocEvent()
	e.f, e.arg = f, arg
	v.schedule(e, d)
	return TimerRef{e: e, v: v, gen: e.gen}
}

// AfterFuncArg is AfterFuncRef without the handle.
func (v *Virtual) AfterFuncArg(d time.Duration, f func(any), arg any) { v.AfterFuncRef(d, f, arg) }

// stopNode cancels a pending node if gen still matches the caller's
// handle. A node whose callback already ran (or that was already stopped)
// has been recycled with a bumped generation, so a late Stop reports
// false and cannot double-free the pooled node.
func (v *Virtual) stopNode(e *event, gen uint32) bool {
	if e.gen != gen || e.level == levelFree {
		return false // already fired (and possibly recycled) or stopped
	}
	v.unlink(e)
	v.recycle(e)
	v.live--
	v.stopped++
	return true
}

// step runs the earliest pending event, if any, and reports whether one
// ran. With useLimit, an event past limitNs does not run; the clock
// advances to the limit instead (matching the clocktest.Heap reference).
func (v *Virtual) step(limitNs int64, useLimit bool) bool {
	if v.live == 0 {
		return false
	}
	var boundTick int64
	if useLimit {
		boundTick = limitNs >> tickBits
	}
	e := v.peek(boundTick, useLimit)
	if e == nil || (useLimit && e.at > limitNs) {
		if useLimit {
			v.nowNs = limitNs
		}
		return false
	}
	v.unlink(e)
	v.cur = e.at >> tickBits
	v.nowNs = e.at
	v.fired++
	v.live--
	f, arg := e.f, e.arg
	// The node is recycled before its callback runs, so the callback can
	// schedule onto it; a late Stop on its timer sees the generation bump
	// and reports "too late".
	v.recycle(e)
	f(arg)
	return true
}

// Run processes events until none remain.
func (v *Virtual) Run() {
	for v.step(0, false) {
	}
}

// RunUntil processes events with timestamps at or before deadline, then
// advances the clock to deadline.
func (v *Virtual) RunUntil(deadline time.Time) {
	limit := deadline.Sub(v.start)
	for v.step(int64(limit), true) {
	}
	if v.nowNs < int64(limit) {
		v.nowNs = int64(limit)
	}
}

// RunFor processes events for d of simulated time from the current instant.
func (v *Virtual) RunFor(d time.Duration) {
	v.RunUntil(v.Now().Add(d))
}

// Pending returns the number of scheduled live (not canceled) events.
func (v *Virtual) Pending() int {
	return v.live
}

// Counters reports cumulative event-loop totals: events scheduled, events
// executed, and timers canceled before firing.
func (v *Virtual) Counters() (scheduled, fired, stopped int64) {
	return int64(v.seq), v.fired, v.stopped
}
