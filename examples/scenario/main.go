// Scenario API tour: run the paper's experiment families through the
// unified entry point — one config shape, cooperative cancellation, and
// the cell-streaming engine's concurrency behind a single knob.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	dikes "repro"
)

func main() {
	ctx := context.Background()

	// A Table 4 attack: the population splits
	// into 32-probe cells (default 4096 — tiny here so several cells
	// exist at this scale), 4 run concurrently, and the per-cell results
	// stream into mergeable accumulators. Byte-identical for any Shards
	// value.
	spec, _ := dikes.SpecByName("H")
	out, err := dikes.Run(ctx, dikes.DDoSScenario(spec), dikes.RunConfig{
		Probes: 120, Seed: 42, Shards: 4, ShardProbes: 32,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("experiment %s: %d probes, %d VPs, invariants ok=%v\n",
		spec.Name, out.DDoS.Table4.Probes, out.DDoS.Table4.VPs, out.Report.OK())
	fmt.Printf("still answered in the last attack round: %.0f%%\n\n",
		100*(1-out.DDoS.FailureRate(9)))

	// The caching baseline through the same entry point; TTL, probing
	// interval, and rounds ride in the RunConfig.
	out, err = dikes.Run(ctx, dikes.CachingScenario(), dikes.RunConfig{
		Probes: 120, Seed: 42, Shards: 4, ShardProbes: 32,
		TTL: 3600, ProbeInterval: 20 * time.Minute, Rounds: 6,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("caching baseline (TTL 3600): miss rate %.1f%%\n\n",
		100*out.Caching.MissRate)

	// The adversary family rides the same engine: a malicious wide
	// delegation amplifies each client query at the victim's servers
	// unless the resolver caps its glueless NS fan-out (max-fetch(k)).
	out, err = dikes.Run(ctx, dikes.NXNSScenario(dikes.NXNSSpec{
		Widths: []int{12}, MaxFetch: 4,
	}), dikes.RunConfig{Probes: 64, Seed: 42, Shards: 2, ShardProbes: 32})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("NXNS width 12 with max-fetch(4): amplification %.2f\n\n",
		out.NXNS.Rows[0].Amplification())

	// Cancellation is cooperative and typed: a cancelled run returns the
	// merged partial results of the cells that finished plus an error
	// satisfying errors.Is(err, dikes.ErrCancelled).
	cctx, cancel := context.WithCancel(ctx)
	cancel() // cancel before the run even starts
	_, err = dikes.Run(cctx, dikes.GlueScenario(), dikes.RunConfig{
		Probes: 64, Seed: 42, Shards: 2, ShardProbes: 32,
	})
	fmt.Printf("cancelled run: err=%v, typed=%v\n",
		err, errors.Is(err, dikes.ErrCancelled))
}
