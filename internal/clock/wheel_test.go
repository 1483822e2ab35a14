package clock

import (
	"testing"
	"time"
)

// --- wheel edge cases (ISSUE 6 satellite) ---

func TestWheelZeroDuration(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	AfterFunc(v, 0, func() { order = append(order, 1) })
	AfterFunc(v, 0, func() { order = append(order, 2) })
	v.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("zero-duration order = %v, want [1 2]", order)
	}
	if !v.Now().Equal(epoch) {
		t.Errorf("zero-duration timers moved the clock: %v", v.Now())
	}
}

func TestWheelCancelThenReschedule(t *testing.T) {
	v := NewVirtual(epoch)
	fired := make([]string, 0, 4)
	tm := AfterFunc(v, time.Minute, func() { fired = append(fired, "old") })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	// The canceled node goes straight back to the free list; the next
	// schedule reuses it. The stale handle must stay inert.
	AfterFunc(v, 30*time.Second, func() { fired = append(fired, "new") })
	if tm.Stop() {
		t.Error("stale Stop canceled the rescheduled (recycled) timer")
	}
	v.Run()
	if len(fired) != 1 || fired[0] != "new" {
		t.Fatalf("fired = %v, want [new]", fired)
	}
}

func TestWheelFarFutureOverflow(t *testing.T) {
	// Deadlines beyond each wheel level, including past the ~52-day
	// level-3 horizon, must fire in order after cascading down.
	v := NewVirtual(epoch)
	delays := []time.Duration{
		100 * time.Millisecond, // level 0
		10 * time.Second,       // level 1
		3 * time.Hour,          // level 2 (multi-hour TTL expiry)
		20 * 24 * time.Hour,    // level 3
		60 * 24 * time.Hour,    // past the horizon: overflow list
		130 * 24 * time.Hour,   // two horizon crossings out
	}
	var fired []time.Duration
	for _, d := range delays {
		d := d
		AfterFunc(v, d, func() { fired = append(fired, d) })
	}
	v.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d far-future events", len(fired), len(delays))
	}
	for i, d := range delays {
		if fired[i] != d {
			t.Fatalf("far-future firing order %v, want %v", fired, delays)
		}
	}
	if got := v.Now(); !got.Equal(epoch.Add(delays[len(delays)-1])) {
		t.Errorf("Now = %v, want epoch+%v", got, delays[len(delays)-1])
	}
}

func TestWheelFarFutureStop(t *testing.T) {
	v := NewVirtual(epoch)
	tm := AfterFunc(v, 90*24*time.Hour, func() { t.Error("stopped overflow timer fired") })
	if v.Pending() != 1 {
		t.Fatal("overflow timer not pending")
	}
	if !tm.Stop() {
		t.Error("Stop on overflow-list timer returned false")
	}
	if v.Pending() != 0 {
		t.Error("overflow timer still pending after Stop")
	}
	v.Run()
}

func TestWheelSlotCollision(t *testing.T) {
	// Many timers landing in one level-0 slot (same tick, distinct ns)
	// must fire in (at, seq) order; same-instant ones FIFO by seq.
	v := NewVirtual(epoch)
	const n = 500
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		// All within one ~1.05ms tick; every 5th shares an instant.
		d := time.Duration(i/5) * time.Microsecond
		AfterFunc(v, d, func() { fired = append(fired, i) })
	}
	v.Run()
	if len(fired) != n {
		t.Fatalf("fired %d of %d colliding events", len(fired), n)
	}
	for i := range fired {
		if fired[i] != i {
			t.Fatalf("colliding slot order broken at %d: got %d", i, fired[i])
		}
	}
}

func TestWheelStopAfterFireNoDoubleFree(t *testing.T) {
	// Regression (ISSUE 6 satellite): Stop after fire must return false
	// and must not push the pooled node onto the free list a second time.
	// A double free would hand the same node to two schedules at once and
	// one of the two callbacks would be lost.
	v := NewVirtual(epoch)
	tm := AfterFunc(v, time.Second, func() {})
	v.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	if tm.Stop() {
		t.Fatal("second Stop after fire returned true")
	}
	fired := 0
	AfterFunc(v, time.Second, func() { fired++ })
	AfterFunc(v, 2*time.Second, func() { fired++ })
	if tm.Stop() {
		t.Fatal("stale Stop canceled a recycled node")
	}
	v.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (double-freed node would drop one)", fired)
	}
	if _, f, _ := v.Counters(); f != 3 {
		t.Errorf("fired counter = %d, want 3", f)
	}
}

func TestWheelTimerRef(t *testing.T) {
	v := NewVirtual(epoch)
	var got []any
	f := func(arg any) { got = append(got, arg) }
	r1 := v.AfterFuncRef(time.Second, f, "fires")
	r2 := v.AfterFuncRef(2*time.Second, f, "stopped")
	if !r2.Stop() {
		t.Error("TimerRef.Stop on pending timer returned false")
	}
	if r2.Stop() {
		t.Error("second TimerRef.Stop returned true")
	}
	v.Run()
	if r1.Stop() {
		t.Error("TimerRef.Stop after fire returned true")
	}
	if len(got) != 1 || got[0] != "fires" {
		t.Errorf("got %v, want [fires]", got)
	}
	var zero TimerRef
	if zero.Stop() {
		t.Error("zero TimerRef.Stop returned true")
	}
}
