// Package parallel is the experiment orchestration layer: a bounded,
// cancellable worker pool (Workers, ForEachCtx, MapCtx) that fans
// independent, deterministically-seeded simulation runs across cores.
// Two fan-outs schedule through it, one per level: the runs of a campaign
// (experiment.RunCampaign) and the cells of one run (runCells).
//
// Determinism: each unit of work owns its whole world (testbed, virtual
// clock, network, RNGs seeded from its own seed), so running units
// concurrently cannot change any unit's result, and MapCtx returns
// results in input order. A parallel run is therefore bit-for-bit
// identical to a sequential one; TestMatrixParallelMatchesSequential in
// internal/experiment enforces this per paper experiment.
//
// Sizing: pass an explicit worker count, or <= 0 to use the process
// default (GOMAXPROCS, itself adjustable with the GOMAXPROCS env var).
// The `dikes` CLI exposes the knob as -workers.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n itself when positive, otherwise
// the number of usable cores (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachCtx calls fn(i) for every i in [0, n), fanning calls across at
// most workers goroutines (<= 0 means Workers' default). fn must be safe
// for concurrent invocation; calls are claimed in index order but may
// complete in any order. Cancellation is cooperative: workers check ctx
// before claiming each index, stop claiming once it is done, and let
// in-flight calls finish (a simulation run cannot be interrupted mid
// event loop, so cancellation granularity is one unit of work). It
// returns when every claimed call has finished, with ctx.Err().
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// MapCtx applies fn to every item on the worker pool and returns the
// results in input order. fn receives the item's index alongside the
// item so seeded runs can derive per-item seeds deterministically. On
// cancellation the returned slice holds the results of every call that
// completed (zero values elsewhere: workers drain in-flight calls, and a
// slot whose fn never ran is never written) alongside ctx.Err(), so
// callers can merge partial work — the experiment engine folds the shards
// that finished into a partial outcome.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) R) ([]R, error) {
	out := make([]R, len(items))
	err := ForEachCtx(ctx, workers, len(items), func(i int) {
		out[i] = fn(i, items[i])
	})
	return out, err
}
