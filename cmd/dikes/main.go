// Command dikes runs the paper's experiments and prints the tables and
// figures as text. Every simulation run is a scenario spec: `dikes
// campaign <spec.json|dir> ...` runs spec files, and the other
// simulation subcommands are aliases for the committed specs under
// examples/specs/, which are embedded in the binary:
//
//	dikes caching      ≡ dikes campaign examples/specs/paper/01-caching.json 02-caching-10min.json
//	                     §3 baseline: Tables 1-3, Figures 3/13
//	dikes ddos         ≡ ... paper/03-ddos.json
//	                     §5/§6 attack emulations: Table 4, Figures 6-12, 14-15,
//	                     Table 7
//	dikes glue         ≡ ... paper/05-glue.json — Appendix A: Table 5
//	dikes adversary    ≡ ... adversary/ — NXNS amplification, off-path
//	                     poisoning, reflection
//	dikes transport    ≡ ... transport.json — DoTCP fallback vs EDNS0 buffer,
//	                     fallback coverage and flood intensity
//	dikes passive      ≡ ... paper/06-passive.json — §4: Figures 4-5
//	dikes retries      ≡ ... paper/07-retries.json — §6.2 / Appendix E: Figure 16
//	dikes implications ≡ ... paper/08-implications.json — §8 root vs CDN
//	dikes all          — the eight above, in that order
//	dikes check        ≡ ... paper/ — the paper campaign, then the
//	                     reproduction scorecard over its results
//	dikes timeline     ≡ ... timeline.json — per-bucket series over the attack
//	                     (-bucket 10m after the subcommand rebins it)
//	dikes ablation     ≡ ... ablation/ — §8 operator advice: serve-stale,
//	                     prefetch, overprovisioning
//	dikes trace        — analyze a JSONL trace recorded with -trace
//	dikes diff         — compare two run reports or timelines; non-zero
//	                     exit on regression
//
// The override rule: a spec owns its settings, and a flag the user sets
// explicitly overrides them on every run of the batch — -probes, -seed,
// -shards, -harvest (ddos specs), -exp (keeps only the named experiments
// of a ddos spec's "paper" list), timeline's -bucket. A flag left unset
// changes nothing. -workers (runs in flight; no spec has such a
// setting), the exporters (-report, -csv, -trace with -trace-sample,
// -trace-chrome) and -progress/-pprof serve aliases and campaign alike.
// The paper used ~9200 probes; the committed specs keep runs quick at
// 1500.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	dikes "repro"
)

// options is what a simulation run takes from the command line.
type options struct {
	probes, shards, workers, traceSample int
	seed                                 int64
	exps                                 string
	harvest                              bool
	bucket                               time.Duration // timeline -bucket
	// set holds the flags given explicitly; only those override a spec.
	set map[string]bool

	csvDir, reportPath, tracePath, traceChrome string
	progress                                   bool
}

func main() {
	o := options{set: map[string]bool{}}
	flag.IntVar(&o.probes, "probes", 0, "override every run's emulated Atlas probe count (paper: ~9200; committed specs: 1500)")
	flag.Int64Var(&o.seed, "seed", 0, "override every run's simulation seed (runs are deterministic per seed)")
	flag.IntVar(&o.shards, "shards", 0, "override every run's population cells in flight at once; results are byte-identical for any value")
	flag.StringVar(&o.exps, "exp", "", "keep only these comma-separated experiments (A-I) of a ddos spec's paper list")
	flag.StringVar(&o.exps, "experiment", "", "alias for -exp")
	flag.BoolVar(&o.harvest, "harvest", true, "override NS-record harvesting (Unbound-like population) on ddos specs")
	flag.StringVar(&o.csvDir, "csv", "", "also write each figure's data (CSV, timelines as CSV and JSON) into this directory")
	flag.IntVar(&o.workers, "workers", 0, "experiment runs in flight at once (0 = one per core); results are identical for any value")
	flag.StringVar(&o.reportPath, "report", "", "write every run's metrics + invariant report as JSON to this file; a failed invariant exits non-zero")
	flag.StringVar(&o.tracePath, "trace", "", "record a deterministic query-lifecycle trace of each run as JSONL to this file (-<run> is spliced in when several run); every family traces (caching, ddos, glue, adversary, transport, passive, retries, implications)")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "with -trace: trace every Nth probe only (0 or 1 = all probes); SERVFAIL chains are always recorded")
	flag.StringVar(&o.traceChrome, "trace-chrome", "", "with -trace: also export each traced run as Chrome trace_event JSON (Perfetto-loadable)")
	pprofAddr := flag.String("pprof", "", "serve /metrics, /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.BoolVar(&o.progress, "progress", false, "print live run telemetry (cells done, events/s, peak rss, eta) to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dikes [flags] <caching|ddos|glue|adversary|transport|passive|retries|implications|all|check|timeline [-bucket 10m]|ablation|campaign <spec.json|dir>...|trace|diff>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	o.set["exp"] = o.set["exp"] || o.set["experiment"]

	cmd, args := flag.Arg(0), flag.Args()
	switch {
	case cmd == "" && (o.set["exp"] || o.set["report"]):
		// `dikes -experiment B -report out.json` with no subcommand means
		// the DDoS emulations.
		cmd = "ddos"
	case cmd == "":
		flag.Usage()
		os.Exit(2)
	case cmd == "trace":
		runTraceCmd(args[1:]) // offline: no simulation, its own flag set
		return
	case cmd == "diff":
		runDiffCmd(args[1:]) // offline: no simulation
		return
	}

	read, paths := dikes.Specs.ReadFile, aliasSpecs(cmd)
	var err error
	switch {
	case cmd == "campaign":
		read = os.ReadFile
		if paths, err = specPaths(args[1:]); err == nil && len(paths) == 0 {
			err = errors.New("usage: dikes campaign <spec.json|dir> ... (no *.json spec files given)")
		}
	case paths == nil:
		err = fmt.Errorf("unknown subcommand %q (dikes -h lists them)", cmd)
	case cmd == "timeline":
		fs := flag.NewFlagSet("dikes timeline", flag.ExitOnError)
		fs.DurationVar(&o.bucket, "bucket", 0, "series bin width in simulated time (default: the spec's)")
		fs.Parse(args[1:])
	}
	var items []dikes.CampaignItem
	if err == nil {
		items, err = o.plan(read, paths)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		addr, _, err := dikes.ServeTelemetry(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dikes: pprof listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics, /debug/pprof/, /debug/vars\n", addr)
	}

	// Ctrl-C / SIGTERM cancels the batch cooperatively: in-flight cells and
	// runs finish, partial results are dropped, and the process exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	fmt.Printf("\n================ campaign: declarative scenario specs ================\n")
	fmt.Printf("%d run(s) from %d spec file(s)\n\n", len(items), len(paths))
	results, err := o.run(ctx, cmd, items)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		if errors.Is(err, dikes.ErrCancelled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	fmt.Print(dikes.RenderCampaign(results))
	failures, err := o.export(results)
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if cmd == "check" {
		failures = append(failures, scorecard(os.Stdout, results)...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		os.Exit(1)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "dikes: %d failure(s):\n", len(failures))
		for _, line := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		os.Exit(1)
	}
}
