package clock

import (
	"testing"
	"time"
)

// horizonNs is the wheel's total span in nanoseconds: an event exactly
// this far from a cursor at the window base is the first one that does
// NOT fit in level 3 and must take the far-list path in place().
const horizonNs = time.Duration(horizonTicks << tickBits) // ~52 days

// TestWheelHorizonBoundary pins the place() level-selection boundary: an
// event scheduled exactly at horizonTicks from the cursor goes to the far
// list (diff == 1<<32 hits the default case), is re-placed when advance()
// crosses the level-3 horizon, and fires at its exact deadline — neither
// dropped nor early — interleaved in (at, seq) order with its neighbors
// one tick on either side of the boundary.
func TestWheelHorizonBoundary(t *testing.T) {
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	v := NewVirtual(start)

	tick := time.Duration(1) << tickBits
	type firing struct {
		label string
		at    time.Duration
	}
	var got []firing
	sched := func(label string, d time.Duration) {
		AfterFunc(v, d, func() {
			if now := v.Now().Sub(start); now != d {
				t.Errorf("%s fired at %v, scheduled for %v", label, now, d)
			}
			got = append(got, firing{label, d})
		})
	}

	sched("near", time.Millisecond)
	sched("at-horizon", horizonNs)       // diff == 1<<32: far list
	sched("horizon-1", horizonNs-tick)   // diff == 1<<32 - 1: level 3
	sched("at-horizon-again", horizonNs) // same instant, later seq: FIFO
	sched("horizon+1", horizonNs+tick)   // far list, lands after one crossing
	sched("mid-window", 30*24*time.Hour) // deep level 3, before the crossing
	sched("two-horizons", 2*horizonNs)   // far list, needs two crossings
	sched("two-horizons+3", 2*horizonNs+3*tick)

	// A far-list cancel must unlink from the overflow list, not a slot.
	stop := AfterFunc(v, horizonNs+2*tick, func() {
		t.Error("stopped far-list event fired")
	})
	if !stop.Stop() {
		t.Fatal("Stop on pending far-list event reported false")
	}

	v.Run()

	want := []string{
		"near", "mid-window", "horizon-1", "at-horizon", "at-horizon-again",
		"horizon+1", "two-horizons", "two-horizons+3",
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d (%v)", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].label != w {
			t.Fatalf("firing %d = %s, want %s (full order: %v)", i, got[i].label, w, got)
		}
	}
	if v.Pending() != 0 {
		t.Errorf("%d events still pending after Run", v.Pending())
	}
}

// TestWheelHorizonFromAdvancedCursor repeats the boundary check after the
// cursor has moved off the window base: the XOR level rule means "exactly
// horizonTicks from now" always differs from the cursor in a bit above
// level 3, so the event must still take the far list and survive the next
// rollover no matter where in the window it was scheduled from.
func TestWheelHorizonFromAdvancedCursor(t *testing.T) {
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	v := NewVirtual(start)

	var fired []string
	// First advance the cursor deep into the window, then schedule the
	// boundary events from inside a callback so e.at is measured from a
	// non-zero, unaligned cursor.
	base := 17*time.Hour + 3*time.Minute + 29*time.Millisecond
	AfterFunc(v, base, func() {
		for _, d := range []time.Duration{
			horizonNs,     // crosses into the next window: far list
			horizonNs - 1, // still beyond level 3's aligned window here: far list too
			time.Second,   // control: nearby event
		} {
			d := d
			wantAt := v.Now().Add(d)
			AfterFunc(v, d, func() {
				if !v.Now().Equal(wantAt) {
					t.Errorf("event for +%v fired at %v, want %v", d, v.Now(), wantAt)
				}
				fired = append(fired, d.String())
			})
		}
	})
	v.Run()

	want := []string{time.Second.String(), (horizonNs - 1).String(), horizonNs.String()}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
}
