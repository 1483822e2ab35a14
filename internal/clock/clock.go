// Package clock abstracts time so the DNS engines can run either on the
// wall clock (real servers in cmd/) or on a deterministic virtual clock
// (the discrete-event simulations that reproduce the paper's experiments).
//
// The virtual clock is a single-threaded event loop: callbacks scheduled
// with AfterFuncRef run on the goroutine that calls Run, in timestamp order.
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

// Clock provides the current time and one-shot timers. It has one way
// to schedule: f(arg) after d, cancelable through the returned TimerRef.
// A static f with its state in arg costs no allocation per timer on the
// virtual clock; closure callers use the AfterFunc helper.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFuncRef schedules f(arg) to run once d has elapsed.
	AfterFuncRef(d time.Duration, f func(arg any), arg any) TimerRef
}

// AfterFunc schedules the closure f on clk once d has elapsed. The func
// value rides in the arg slot (a pointer, so boxing it allocates
// nothing) and runs through one static trampoline.
func AfterFunc(clk Clock, d time.Duration, f func()) TimerRef {
	return clk.AfterFuncRef(d, callFunc, f)
}

func callFunc(f any) { f.(func())() }

// Timer is a cancelable pending callback of a Clock implemented outside
// this package (see RefOf).
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before it fired.
	Stop() bool
}

// TimerRef is a cancelable pending callback held by value. The zero
// TimerRef is valid and Stop on it reports false.
type TimerRef struct {
	// At most one of the backends is set.
	e   *event   // virtual-clock node
	v   *Virtual // owning wheel
	gen uint32   // node generation at schedule time
	t   Timer    // timer of a Clock implemented outside this package
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
