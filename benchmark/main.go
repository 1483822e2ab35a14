// Command benchmark is this repository's one benchmark: four workloads
// (two simulator campaigns, two real-socket daemon runs), the end-to-end
// metrics BENCHMARK.json bounds, and a traced pass that attributes a
// simulated cell's host time to the layer packages. README.md in this
// directory explains the workloads, the metrics and how they interact.
//
//	go run ./benchmark --workload sim_ddos_H --seed 42 --seconds 15 --trace 0
//	go run ./benchmark                      # every workload, both passes
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// spec is the scenario spec of a simulator workload; nil for the
	// daemon workloads.
	spec []byte
	// recursive puts a fresh recursived in front of authd.
	recursive bool
}

var workloads = []workload{
	{name: "sim_ddos_H", spec: specDDoSH,
		why: "paper experiment H (TTL 1800 s, 90 % loss): retries, timeouts and drops, so clock, netsim, dnswire and the resolver miss path do the work"},
	{name: "sim_caching_calm", spec: specCachingCalm,
		why: "calm caching baseline (TTL 3600 s, no loss): few events per probe, so per-resolver first-touch cost, cold cache puts and answer collection dominate"},
	{name: "daemon_auth_udp",
		why: "authd serving a 100 000-name zone on loopback UDP to 2 closed-loop clients: udprun, dnswire, zone, authoritative on the real clock; no cache, resolver or simulator"},
	{name: "daemon_recursive_mix", recursive: true,
		why: "recursived in front of authd, 80 % warm hot-set reads and 20 % never-seen names: the simulator's resolver and cache on real timers, writes beside reads"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the workload dimensions that do not come from a spec file.
// fullSize is what the benchmark measures; the package test shrinks them.
type sizes struct {
	simProbes, simShardProbes int // 0: as the spec file says
	minReps                   int // simulator repetitions at least
	setupSamples              int // simulator set-up time samples at least
	daemonSetups              int // times a daemon workload is set up
	zoneNames, hotNames       int
	warmup                    time.Duration // daemon warm-up, discarded
	probeFor                  time.Duration // one layer probe's measuring time
	// pin gives the load generator and the daemons a CPU each (see
	// cpuSplit); off in the package test, whose workloads share a process.
	pin bool
}

var fullSize = sizes{
	minReps: 3, setupSamples: 9, daemonSetups: 5,
	zoneNames: 100_000, hotNames: 1000,
	warmup: 2 * time.Second, probeFor: 200 * time.Millisecond, pin: true,
}

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	size    sizes
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		if err := childMain(req, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "seed of the generated inputs (spec engine.seed, client name selection)")
	seconds := flag.Float64("seconds", 15, "how long one run measures")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	// SIGINT and SIGTERM cancel ctx; every child and daemon is started
	// under it, and the deferred clean-ups run on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), size: fullSize}

	ok := true
	for _, w := range selected {
		passes := []int{*traced}
		if *name == "all" {
			passes = []int{0, 1}
		}
		for _, pass := range passes {
			res, err := runWorkload(ctx, w, o, pass == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Println(string(line))
			ok = ok && res.Correct
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one pass of one workload: the untraced pass yields
// every end-to-end metric, the traced pass every per-layer metric.
func runWorkload(ctx context.Context, w workload, o options, traced bool) (result, error) {
	switch {
	case w.spec != nil && !traced:
		return simEndToEnd(ctx, w, o)
	case w.spec != nil:
		return simPerLayer(ctx, w, o)
	case !traced:
		return daemonEndToEnd(ctx, w, o)
	default:
		return daemonPerLayer(ctx, w, o)
	}
}
