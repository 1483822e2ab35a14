package clocktest

import (
	"testing"
	"time"

	"repro/internal/clock"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func TestHeapDeadCompaction(t *testing.T) {
	// Pins the reference engine's compaction semantics: dead events are
	// dropped from the heap once they outnumber live ones.
	v := NewHeap(epoch)
	const n = 1000
	timers := make([]clock.TimerRef, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, clock.AfterFunc(v, time.Hour, func() {}))
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop returned false for pending timer")
		}
	}
	if got := v.Pending(); got != 0 {
		t.Errorf("Pending = %d after stopping everything", got)
	}
	heapLen, dead := len(v.heap), v.dead
	if heapLen > n/2 {
		t.Errorf("heap still holds %d events (%d dead); compaction did not run", heapLen, dead)
	}
	fired := false
	clock.AfterFunc(v, time.Minute, func() { fired = true })
	v.Run()
	if !fired {
		t.Error("event scheduled after compaction did not fire")
	}
}
