package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachRunsEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	_ = ForEachCtx(context.Background(), 8, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	_ = ForEachCtx(context.Background(), workers, 100, func(int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent calls, limit %d", p, workers)
	}
}
