// Package clock abstracts time so the DNS engines can run either on the
// wall clock (real servers in cmd/) or on a deterministic virtual clock
// (the discrete-event simulations that reproduce the paper's experiments).
//
// The virtual clock is a single-threaded event loop: callbacks scheduled
// with AfterFunc run on the goroutine that calls Run, in timestamp order.
// Multi-hour experiments with tens of thousands of resolvers execute in
// milliseconds, and runs are bit-for-bit reproducible for a given seed.
//
// Ownership: a Virtual (and the clocktest.Heap oracle), the netsim.Network
// on it and every engine attached to that network belong to one goroutine
// — the one that builds the cell and calls Run. None of them locks. The
// daemons never use these types; they serialise the same engines on the
// wall clock with udprun.Loop.
//
// Virtual is backed by a hierarchical timing wheel (see wheel.go); the
// previous container/heap implementation survives as clocktest.Heap, the
// reference oracle for the differential tests.
package clock

import (
	"time"
)

// Clock provides the current time and one-shot timers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules f to run once d has elapsed. The returned Timer
	// can cancel the call.
	AfterFunc(d time.Duration, f func()) Timer
	// AfterFuncArg schedules a fire-and-forget f(arg) once d has elapsed,
	// so a hot path with a static callback pays neither a closure
	// allocation per event nor the Timer interface boxing of AfterFunc
	// (on the virtual clock). The simulated network delivers every packet
	// through it.
	AfterFuncArg(d time.Duration, f func(arg any), arg any)
}

// Timer is a cancelable pending callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before it fired.
	Stop() bool
}

// RefScheduler is an optional Clock extension, the cancelable flavor of
// AfterFuncArg: it returns a TimerRef by value, so a cancelable timer
// with a static callback costs zero allocations on the virtual clock (the resolver and stub timeout
// paths, one per upstream query, run through it).
type RefScheduler interface {
	AfterFuncRef(d time.Duration, f func(arg any), arg any) TimerRef
}

// TimerRef is a cancelable pending callback held by value. The zero
// TimerRef is valid and Stop on it reports false.
type TimerRef struct {
	// Exactly one of the backends is set.
	e   *event   // virtual-clock node
	v   *Virtual // owning wheel
	gen uint32   // node generation at schedule time
	t   Timer    // fallback for foreign Clock implementations
}

// Stop cancels the timer. It reports whether the call was stopped before
// it fired; after the callback ran (or on a second Stop) it reports false.
func (r TimerRef) Stop() bool {
	if r.e != nil {
		return r.v.stopNode(r.e, r.gen)
	}
	if r.t != nil {
		return r.t.Stop()
	}
	return false
}

// RefOf wraps a Timer of a Clock implemented outside this package, for
// that Clock's own AfterFuncRef to return.
func RefOf(t Timer) TimerRef { return TimerRef{t: t} }

// AfterFuncRef schedules f(arg) on any Clock, using the allocation-free
// RefScheduler path when clk provides it.
func AfterFuncRef(clk Clock, d time.Duration, f func(arg any), arg any) TimerRef {
	if rs, ok := clk.(RefScheduler); ok {
		return rs.AfterFuncRef(d, f, arg)
	}
	return TimerRef{t: clk.AfterFunc(d, func() { f(arg) })}
}

// Real is a Clock backed by the time package.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// AfterFuncArg implements Clock (via a closure; the allocation saving
// only matters on the virtual clock's simulation hot path).
func (Real) AfterFuncArg(d time.Duration, f func(any), arg any) {
	time.AfterFunc(d, func() { f(arg) })
}

// AfterFuncRef implements RefScheduler.
func (Real) AfterFuncRef(d time.Duration, f func(any), arg any) TimerRef {
	return TimerRef{t: realTimer{time.AfterFunc(d, func() { f(arg) })}}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }
