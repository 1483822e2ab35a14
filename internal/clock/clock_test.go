package clock

import (
	"testing"
	"time"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualOrdering(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	AfterFunc(v, 3*time.Second, func() { order = append(order, 3) })
	AfterFunc(v, 1*time.Second, func() { order = append(order, 1) })
	AfterFunc(v, 2*time.Second, func() { order = append(order, 2) })
	v.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := v.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Errorf("Now = %v, want epoch+3s", got)
	}
}

func TestVirtualSameInstantFIFO(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		AfterFunc(v, time.Second, func() { order = append(order, i) })
	}
	v.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	v := NewVirtual(epoch)
	fired := 0
	AfterFunc(v, time.Second, func() {
		fired++
		AfterFunc(v, time.Second, func() { fired++ })
	})
	v.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if got := v.Now(); !got.Equal(epoch.Add(2 * time.Second)) {
		t.Errorf("Now = %v, want epoch+2s", got)
	}
}

func TestVirtualStop(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	tm := AfterFunc(v, time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	v.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestVirtualRunUntil(t *testing.T) {
	v := NewVirtual(epoch)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 5 * time.Second, 10 * time.Second} {
		d := d
		AfterFunc(v, d, func() { fired = append(fired, d) })
	}
	v.RunUntil(epoch.Add(6 * time.Second))
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if got := v.Now(); !got.Equal(epoch.Add(6 * time.Second)) {
		t.Errorf("Now = %v, want epoch+6s", got)
	}
	v.RunFor(10 * time.Second)
	if len(fired) != 3 {
		t.Errorf("after RunFor, fired %v", fired)
	}
}

func TestVirtualNegativeDelay(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	AfterFunc(v, -time.Hour, func() { fired = true })
	v.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if !v.Now().Equal(epoch) {
		t.Error("negative delay moved clock backwards")
	}
}

func TestVirtualPending(t *testing.T) {
	v := NewVirtual(epoch)
	t1 := AfterFunc(v, time.Second, func() {})
	AfterFunc(v, 2*time.Second, func() {})
	if got := v.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
	t1.Stop()
	if got := v.Pending(); got != 1 {
		t.Errorf("Pending after Stop = %d, want 1", got)
	}
}

func TestVirtualStopAfterFire(t *testing.T) {
	v := NewVirtual(epoch)
	tm := AfterFunc(v, time.Second, func() {})
	v.Run()
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
	// The fired event's struct is recycled; a stale Stop must not cancel
	// whatever timer reuses it.
	fired := false
	AfterFunc(v, time.Second, func() { fired = true })
	if tm.Stop() {
		t.Error("stale Stop returned true")
	}
	v.Run()
	if !fired {
		t.Error("stale Stop canceled a recycled event")
	}
}

func TestVirtualAfterFuncArg(t *testing.T) {
	v := NewVirtual(epoch)
	var got []any
	f := func(arg any) { got = append(got, arg) }
	v.AfterFuncArg(2*time.Second, f, "b")
	v.AfterFuncArg(time.Second, f, "a")
	v.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("got %v, want [a b]", got)
	}
}

func TestVirtualStopReclaimsNodes(t *testing.T) {
	// The wheel analogue of the old heap-compaction test: canceled timers
	// must leave the wheel immediately (O(1) unlink to the free list), not
	// linger until their far-future deadlines come around.
	v := NewVirtual(epoch)
	const n = 1000
	timers := make([]TimerRef, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, AfterFunc(v, time.Hour, func() {}))
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop returned false for pending timer")
		}
	}
	if got := v.Pending(); got != 0 {
		t.Errorf("Pending = %d after stopping everything", got)
	}
	linked := 0
	for l := range v.slots {
		for s := range v.slots[l] {
			for e := v.slots[l][s]; e != nil; e = e.next {
				linked++
			}
		}
	}
	for e := v.far; e != nil; e = e.next {
		linked++
	}
	if linked != 0 {
		t.Errorf("wheel still links %d nodes after stopping everything", linked)
	}
	fired := false
	AfterFunc(v, time.Minute, func() { fired = true })
	v.Run()
	if !fired {
		t.Error("event scheduled after mass cancel did not fire")
	}
}

func TestVirtualEventReuseKeepsDeterminism(t *testing.T) {
	run := func() []int {
		v := NewVirtual(epoch)
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			AfterFunc(v, time.Duration(i%7)*time.Second, func() {
				order = append(order, i)
				if i%3 == 0 {
					AfterFunc(v, time.Second, func() { order = append(order, 1000+i) })
				}
			})
		}
		v.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
