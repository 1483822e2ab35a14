package clock_test

// The wheel behind clock.Virtual against the clocktest.Heap reference:
// identical schedules must fire in the same order, at the same instants,
// with the same Stop results and counters.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// TestWheelFarRecascadeMatchesHeap drives the wheel and the Heap reference
// with an identical schedule clustered around multiples of the horizon and
// asserts bit-identical firing order and timestamps across three level-3
// rollovers, including events scheduled from callbacks mid-run.
func TestWheelFarRecascadeMatchesHeap(t *testing.T) {
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	tick := time.Duration(1) << clock.TickBits

	var durations []time.Duration
	for h := 0; h <= 3; h++ {
		for _, off := range []time.Duration{
			-tick, 0, tick, 7 * tick, 300 * tick, time.Hour,
		} {
			d := time.Duration(h)*clock.HorizonNs + off
			if d < 0 {
				continue
			}
			durations = append(durations, d)
		}
	}

	type rec struct {
		label int
		at    time.Duration
	}
	run := func(c clock.Clock, runAll func()) []rec {
		var out []rec
		for i, d := range durations {
			i, d := i, d
			clock.AfterFunc(c, d, func() {
				out = append(out, rec{i, c.Now().Sub(start)})
				// Re-schedule across the next rollover from inside the
				// callback: exercises far-list placement at a moved cursor.
				if d == clock.HorizonNs {
					clock.AfterFunc(c, clock.HorizonNs, func() {
						out = append(out, rec{-1, c.Now().Sub(start)})
					})
				}
			})
		}
		runAll()
		return out
	}

	w := clock.NewVirtual(start)
	wheelOrder := run(w, w.Run)
	h := clocktest.NewHeap(start)
	heapOrder := run(h, h.Run)

	if len(wheelOrder) != len(heapOrder) {
		t.Fatalf("wheel fired %d events, heap %d", len(wheelOrder), len(heapOrder))
	}
	for i := range wheelOrder {
		if wheelOrder[i] != heapOrder[i] {
			t.Fatalf("divergence at firing %d: wheel %+v, heap %+v",
				i, wheelOrder[i], heapOrder[i])
		}
	}
}

// driveBoth runs one random schedule through the wheel and the heap
// reference and fails on any divergence in firing order, observed Now at
// each firing, Stop results, or final counters.
func driveBoth(t *testing.T, seed int64) {
	t.Helper()
	type rec struct {
		id  int
		now time.Duration
	}
	run := func(mk func() interface {
		clock.Clock
		Run()
		RunUntil(time.Time)
		Pending() int
		Counters() (int64, int64, int64)
	}) (fired []rec, stops []bool, sched, exec, stopped int64, now time.Time) {
		rng := rand.New(rand.NewSource(seed))
		clk := mk()
		var timers []clock.TimerRef
		id := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 2 + rng.Intn(6)
			for i := 0; i < n; i++ {
				myID := id
				id++
				var d time.Duration
				switch rng.Intn(6) {
				case 0:
					d = 0
				case 1:
					d = time.Duration(rng.Intn(1000)) * time.Nanosecond
				case 2:
					d = time.Duration(rng.Intn(5000)) * time.Millisecond
				case 3:
					d = time.Duration(rng.Intn(7200)) * time.Second // multi-hour TTLs
				case 4:
					d = time.Duration(rng.Intn(90*24)) * time.Hour // past the horizon
				default:
					d = time.Duration(rng.Intn(64)) * time.Duration(1<<clock.TickBits) // slot collisions
				}
				nested := depth < 2 && rng.Intn(4) == 0
				timers = append(timers, clock.AfterFunc(clk, d, func() {
					fired = append(fired, rec{myID, clk.Now().Sub(epoch)})
					if nested {
						schedule(depth + 1)
					}
				}))
				if rng.Intn(5) == 0 && len(timers) > 0 {
					victim := timers[rng.Intn(len(timers))]
					stops = append(stops, victim.Stop())
				}
			}
		}
		schedule(0)
		// Drain in bounded chunks, then fully.
		clk.RunUntil(epoch.Add(time.Duration(rng.Intn(3600)) * time.Second))
		schedule(0)
		clk.Run()
		sched, exec, stopped = clk.Counters()
		now = clk.Now()
		return
	}

	wf, ws, wsc, wx, wst, wnow := run(func() interface {
		clock.Clock
		Run()
		RunUntil(time.Time)
		Pending() int
		Counters() (int64, int64, int64)
	} {
		return clock.NewVirtual(epoch)
	})
	hf, hs, hsc, hx, hst, hnow := run(func() interface {
		clock.Clock
		Run()
		RunUntil(time.Time)
		Pending() int
		Counters() (int64, int64, int64)
	} {
		return clocktest.NewHeap(epoch)
	})

	if len(wf) != len(hf) {
		t.Fatalf("seed %d: wheel fired %d events, heap fired %d", seed, len(wf), len(hf))
	}
	for i := range wf {
		if wf[i] != hf[i] {
			t.Fatalf("seed %d: firing %d diverges: wheel %+v heap %+v", seed, i, wf[i], hf[i])
		}
	}
	if len(ws) != len(hs) {
		t.Fatalf("seed %d: stop counts diverge: %d vs %d", seed, len(ws), len(hs))
	}
	for i := range ws {
		if ws[i] != hs[i] {
			t.Fatalf("seed %d: Stop result %d diverges: wheel %v heap %v", seed, i, ws[i], hs[i])
		}
	}
	if wsc != hsc || wx != hx || wst != hst {
		t.Fatalf("seed %d: counters diverge: wheel (%d,%d,%d) heap (%d,%d,%d)",
			seed, wsc, wx, wst, hsc, hx, hst)
	}
	if !wnow.Equal(hnow) {
		t.Fatalf("seed %d: final Now diverges: wheel %v heap %v", seed, wnow, hnow)
	}
}

func TestWheelMatchesHeapRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		driveBoth(t, seed)
	}
}

// TestAfterFuncClosure holds the closure helper on both engines: the
// closure runs, and Stop on its TimerRef cancels it.
func TestAfterFuncClosure(t *testing.T) {
	for _, c := range []interface {
		clock.Clock
		Run()
	}{clock.NewVirtual(epoch), clocktest.NewHeap(epoch)} {
		var fired []string
		clock.AfterFunc(c, time.Second, func() { fired = append(fired, "runs") })
		stopped := clock.AfterFunc(c, 2*time.Second, func() { fired = append(fired, "stopped") })
		if !stopped.Stop() {
			t.Errorf("%T: Stop on a pending closure timer returned false", c)
		}
		c.Run()
		if len(fired) != 1 || fired[0] != "runs" {
			t.Errorf("%T: fired %v, want [runs]", c, fired)
		}
	}
}
