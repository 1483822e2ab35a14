// Command dikes runs the paper's experiments and prints the tables and
// figures as text. Subcommands map to the paper's sections:
//
//	dikes caching   — §3 baseline: Tables 1-3, Figures 3/13
//	dikes ddos      — §5/§6 attack emulations: Table 4, Figures 6-12, 14-15
//	dikes glue      — Appendix A: Table 5
//	dikes adversary — adversarial extensions: NXNS amplification,
//	                  off-path poisoning, reflection
//	dikes transport — DoTCP fallback: answer rate vs EDNS0 buffer size,
//	                  TCP fallback coverage, and flood intensity
//	dikes passive   — §4: Figures 4-5
//	dikes retries   — §6.2 / Appendix E: Figure 16
//	dikes campaign  — run declarative scenario-spec files (examples/specs/)
//	dikes timeline  — per-bucket series over the attack event (tables,
//	                  CSV/JSON export, answer-rate sparklines)
//	dikes diff      — compare two run reports or timelines; non-zero
//	                  exit on regression
//	dikes all       — everything above
//
// Scale with -probes (the paper used ~9200; the default keeps runs quick).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	dikes "repro"
)

// options is what the simulation subcommands take from the global flags.
type options struct {
	probes  int
	seed    int64
	shards  int
	workers int
	exps    string
	pop     dikes.PopulationConfig

	tracePath   string // -trace: JSONL trace of each ddos/adversary/transport run
	traceChrome string // -trace-chrome: Chrome trace_event export beside it
	traceSample int
	progress    bool
}

func main() {
	var o options
	flag.IntVar(&o.probes, "probes", 1500, "number of emulated Atlas probes (paper: ~9200; larger populations stream through 4096-probe cells)")
	flag.Int64Var(&o.seed, "seed", 42, "simulation seed (runs are deterministic per seed)")
	flag.IntVar(&o.shards, "shards", 1, "population cells of one run in flight at once (0 means 1); results are byte-identical for any value")
	flag.StringVar(&o.exps, "exp", "A,B,C,D,E,F,G,H,I", "comma-separated DDoS experiments for the ddos subcommand")
	flag.StringVar(&o.exps, "experiment", "A,B,C,D,E,F,G,H,I", "alias for -exp")
	harvest := flag.Bool("harvest", true, "enable NS-record harvesting (Unbound-like population)")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV files into this directory")
	flag.IntVar(&o.workers, "workers", 0, "experiment runs in flight at once (0 = one per core); results are identical for any value")
	reportPath := flag.String("report", "", "write every run's metrics + invariant report as JSON to this file; a failed invariant exits non-zero")
	flag.StringVar(&o.tracePath, "trace", "", "record a deterministic query-lifecycle trace of each ddos, adversary or transport run as JSONL to this file")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "trace every Nth probe only (0 or 1 = all probes); SERVFAIL chains are always recorded")
	flag.StringVar(&o.traceChrome, "trace-chrome", "", "also export each traced run as Chrome trace_event JSON (Perfetto-loadable)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.BoolVar(&o.progress, "progress", false, "print live run telemetry (cells done, events/s, peak rss, eta) to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dikes [flags] <caching|ddos|glue|adversary|transport|passive|retries|implications|check|campaign|timeline|trace|diff|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		// `dikes -experiment B -report out.json` with no subcommand means
		// the DDoS emulations.
		expSet, repSet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "experiment":
				expSet = true
			case "report":
				repSet = true
			}
		})
		if expSet || repSet {
			cmd = "ddos"
		} else {
			flag.Usage()
			os.Exit(2)
		}
	}

	if cmd == "trace" {
		// Offline trace analysis: no simulation, its own flag set.
		runTraceCmd(flag.Args()[1:])
		return
	}
	if cmd == "diff" {
		// Offline report/timeline comparison: no simulation.
		runDiffCmd(flag.Args()[1:])
		return
	}

	if *harvest {
		o.pop.Harvest = dikes.HarvestFull
	}
	if *pprofAddr != "" {
		addr, _, err := dikes.ServeTelemetry(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dikes: pprof listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics, /debug/pprof/, /debug/vars\n", addr)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
			os.Exit(1)
		}
		csvOut = *csvDir
	}

	// Ctrl-C / SIGTERM cancels the run cooperatively: in-flight cells and
	// experiment runs finish, partial results are dropped, and the process
	// exits 130 (exitCancelled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	switch cmd {
	case "caching":
		runCaching(ctx, o)
	case "ddos":
		runDDoS(ctx, o)
	case "glue":
		runGlue(ctx, o)
	case "adversary":
		runAdversary(ctx, o)
	case "transport":
		runTransport(ctx, o)
	case "passive":
		runPassive(o.seed)
	case "retries":
		runRetries(o.seed)
	case "implications":
		runImplications(o.seed)
	case "check":
		runCheck(ctx, o)
	case "timeline":
		runTimelineCmd(ctx, flag.Args()[1:], o)
	case "campaign":
		shardsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		runCampaignCmd(ctx, flag.Args()[1:], o, shardsSet)
	case "all":
		runCaching(ctx, o)
		runDDoS(ctx, o)
		runGlue(ctx, o)
		runAdversary(ctx, o)
		runTransport(ctx, o)
		runPassive(o.seed)
		runRetries(o.seed)
		runImplications(o.seed)
	default:
		fmt.Fprintf(os.Stderr, "dikes: unknown subcommand %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))

	if *reportPath != "" {
		if err := writeReports(*reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
			os.Exit(1)
		}
	}
	if failed := failedInvariants(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "dikes: %d invariant(s) FAILED:\n", len(failed))
		for _, line := range failed {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		os.Exit(1)
	}
	if campaignErrs > 0 {
		fmt.Fprintf(os.Stderr, "dikes: %d campaign run(s) FAILED\n", campaignErrs)
		os.Exit(1)
	}
}

// config is the engine part of every run's RunConfig.
func (o options) config() dikes.RunConfig {
	return dikes.RunConfig{Probes: o.probes, Seed: o.seed, Shards: o.shards}
}

// traced is config plus the -trace settings, for the families that
// record traces.
func (o options) traced() dikes.RunConfig {
	cfg := o.config()
	if o.tracePath != "" {
		cfg.Trace = &dikes.TraceConfig{SampleEvery: o.traceSample}
	}
	return cfg
}

// run executes items as one campaign, at most -workers runs in flight,
// and returns their outcomes in item order. It owns what every
// subcommand shares: -progress (one tracker over every planned cell),
// Ctrl-C handling, per-run trace files and report collection. A failed
// run is fatal.
func (o options) run(ctx context.Context, label string, items []dikes.CampaignItem) []*dikes.Outcome {
	var prog *dikes.Progress
	if o.progress {
		cells := 0
		for _, it := range items {
			cells += (it.Config.Probes + dikes.DefaultShardProbes - 1) / dikes.DefaultShardProbes
		}
		prog = dikes.NewProgress(nil, label, cells, 0)
		for i := range items {
			items[i].Config.Progress = prog
		}
	}
	results, err := dikes.RunCampaign(ctx, items, o.workers)
	prog.Finish()
	if err != nil {
		exitCancelled(err)
	}
	outs := make([]*dikes.Outcome, len(results))
	for i, r := range results {
		if r.Err != nil {
			exitCancelled(fmt.Errorf("%s: %w", r.Item.Name, r.Err))
		}
		if r.Item.Config.Trace != nil {
			o.writeTrace(r.Outcome.Trace, r.Item.Name, len(items) > 1)
		}
		collectReport(r.Outcome.Report)
		outs[i] = r.Outcome
	}
	return outs
}

// item names one scenario run after the scenario.
func item(sc dikes.Scenario, cfg dikes.RunConfig) dikes.CampaignItem {
	return dikes.CampaignItem{Name: sc.Name(), Scenario: sc, Config: cfg}
}

// exitCancelled reports a context-cancelled run and exits with the
// conventional SIGINT status.
func exitCancelled(err error) {
	if errors.Is(err, dikes.ErrCancelled) {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
	os.Exit(1)
}

// reports accumulates each run's report for -report / invariant checking.
var reports []*dikes.Report

func collectReport(r *dikes.Report) {
	if r != nil {
		reports = append(reports, r)
	}
}

func writeReports(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dikes.WriteReportsJSON(f, reports); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d run report(s))\n", path, len(reports))
	return f.Close()
}

// failedInvariants lists every failed invariant across all collected
// reports, one "run/invariant: detail" line each.
func failedInvariants() []string {
	var out []string
	for _, r := range reports {
		for _, inv := range r.FailedInvariants() {
			out = append(out, fmt.Sprintf("%s/%s: %s", r.Name, inv.Name, inv.Detail))
		}
	}
	return out
}

func header(s string) { fmt.Printf("\n================ %s ================\n", s) }

// csvOut, when set, receives one CSV file per figure.
var csvOut string

// tracePathFor derives the output path of one run's trace: the
// configured path as-is for a single run, with "-<name>" spliced in
// before the extension when several run.
func tracePathFor(base, name string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + name + ext
}

// writeTrace exports one run's trace as JSONL (and optionally Chrome
// trace_event JSON).
func (o options) writeTrace(td *dikes.TraceData, name string, multi bool) {
	path := tracePathFor(o.tracePath, name, multi)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		os.Exit(1)
	}
	if err := td.WriteJSONL(f); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d trace events)\n", path, td.Len())
	if o.traceChrome == "" {
		return
	}
	cpath := tracePathFor(o.traceChrome, name, multi)
	cf, err := os.Create(cpath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		os.Exit(1)
	}
	if err := td.WriteChrome(cf); err == nil {
		err = cf.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: write %s: %v\n", cpath, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", cpath)
}

func writeCSV(name, content string) {
	if csvOut == "" {
		return
	}
	path := filepath.Join(csvOut, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dikes: write %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

func runCaching(ctx context.Context, o options) {
	header("§3 caching baseline (Tables 1-3, Figures 3/13)")
	var items []dikes.CampaignItem
	for _, c := range []struct {
		ttl      uint32
		interval time.Duration
	}{
		{60, 20 * time.Minute},
		{1800, 20 * time.Minute},
		{3600, 20 * time.Minute},
		{86400, 20 * time.Minute},
		{3600, 10 * time.Minute},
	} {
		fmt.Printf("running TTL=%d interval=%v ...\n", c.ttl, c.interval)
		cfg := o.config()
		cfg.TTL, cfg.ProbeInterval, cfg.Rounds = c.ttl, c.interval, 6
		items = append(items, item(dikes.CachingScenario(), cfg))
	}
	var results []*dikes.CachingResult
	for _, out := range o.run(ctx, "caching", items) {
		results = append(results, out.Caching)
	}
	fmt.Printf("\nTable 1: caching baseline\n%s", dikes.RenderTable1(results))
	fmt.Printf("\nTable 2: answer classification\n%s", dikes.RenderTable2(results))
	fmt.Printf("\nTable 3: AC answers by public resolver\n%s", dikes.RenderTable3(results))
	fmt.Printf("\nFigure 13 (TTL 1800): answer types over time\n%s",
		results[1].Fig13.Table([]string{"AA", "CC", "AC", "CA", "Warmup"}))
}

func runDDoS(ctx context.Context, o options) {
	header("§5-6 DDoS emulations (Table 4, Figures 6-12, 14-15)")
	var items []dikes.CampaignItem
	for _, name := range strings.Split(o.exps, ",") {
		name = strings.TrimSpace(name)
		spec, ok := dikes.SpecByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "dikes: unknown experiment %q\n", name)
			continue
		}
		fmt.Printf("running experiment %s (TTL %d, %.0f%% loss) ...\n",
			spec.Name, spec.TTL, spec.Loss*100)
		cfg := o.traced()
		cfg.Population = o.pop
		// Worlds are retained only where the drill-down needs them.
		cfg.KeepWorlds = spec.Name == "I"
		items = append(items, dikes.CampaignItem{
			Name: spec.Name, Scenario: dikes.DDoSScenario(spec), Config: cfg,
		})
	}
	var results []*dikes.DDoSResult
	for _, out := range o.run(ctx, "ddos", items) {
		res, name := out.DDoS, out.DDoS.Spec.Name
		results = append(results, res)

		fmt.Printf("\nFigure 6/8/14 (exp %s): answers per round\n%s", name,
			res.Answers.Table([]string{"OK", "SERVFAIL", "NoAnswer"}))
		fmt.Printf("Figure 9/15 (exp %s): latency quantiles\n%s", name, dikes.RenderLatency(res))
		fmt.Printf("Figure 7 (exp %s): answer classes\n%s", name,
			res.Classes.Table([]string{"AA", "CC", "CA", "AC"}))
		fmt.Printf("Figure 10 (exp %s): queries at the authoritatives\n%s", name,
			res.AuthQueries.Table([]string{"NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID"}))
		fmt.Printf("Figure 11 (exp %s): per-probe amplification\n%s", name,
			dikes.RenderAmplification(res))
		fmt.Printf("Figure 12 (exp %s): unique Rn\n%s", name, dikes.RenderUniqueRn(res))
		writeCSV("fig-answers-exp"+name+".csv",
			dikes.SeriesCSV(res.Answers, []string{"OK", "SERVFAIL", "NoAnswer"}))
		writeCSV("fig9-latency-exp"+name+".csv", dikes.LatencyCSV(res))
		writeCSV("fig10-authload-exp"+name+".csv",
			dikes.SeriesCSV(res.AuthQueries, []string{"NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID"}))
		writeCSV("fig11-amplification-exp"+name+".csv", dikes.AmplificationCSV(res))
		writeCSV("fig12-uniquern-exp"+name+".csv", dikes.UniqueRnCSV(res))
		if out.Worlds != nil {
			ref := out.Worlds.BusiestProbe()
			fmt.Printf("Table 7 (exp I): per-probe drill-down\n%s",
				dikes.RenderTable7(out.Worlds.PerProbe(res, ref)))
		}
	}
	fmt.Printf("\nTable 4: experiment matrix\n%s", dikes.RenderTable4(results))
}

func runGlue(ctx context.Context, o options) {
	header("Appendix A: glue vs authoritative TTL (Table 5)")
	out := o.run(ctx, "glue", []dikes.CampaignItem{item(dikes.GlueScenario(), o.config())})[0]
	fmt.Print(dikes.RenderTable5(out.Glue))
}

func runAdversary(ctx context.Context, o options) {
	header("adversary family: NXNS amplification, off-path poisoning, reflection")
	cfg := o.traced()
	outs := o.run(ctx, "adversary", []dikes.CampaignItem{
		item(dikes.NXNSScenario(dikes.NXNSSpec{}), cfg),
		item(dikes.NXNSScenario(dikes.NXNSSpec{MaxFetch: 5}), cfg),
		item(dikes.PoisonScenario(dikes.PoisonSpec{NoBailiwick: true}), cfg),
		item(dikes.PoisonScenario(dikes.PoisonSpec{}), cfg),
		item(dikes.PoisonScenario(dikes.PoisonSpec{RandomIDs: true, NoBailiwick: true}), cfg),
		item(dikes.PoisonScenario(dikes.PoisonSpec{RandomIDs: true}), cfg),
		item(dikes.ReflectScenario(dikes.ReflectSpec{}), cfg),
	})

	fmt.Printf("\nNXNS-style referral amplification vs delegation width\n")
	for _, out := range outs[:2] {
		fmt.Print(dikes.RenderNXNS(out.NXNS))
		fmt.Println()
	}

	fmt.Printf("off-path poisoning: success vs query-ID entropy and bailiwick checking\n")
	var poisons []*dikes.PoisonResult
	for _, out := range outs[2:6] {
		poisons = append(poisons, out.Poison)
	}
	fmt.Print(dikes.RenderPoison(poisons))

	fmt.Printf("\nreflection: victim-side amplification by query shape\n")
	fmt.Print(dikes.RenderReflect(outs[6].Reflect))
}

func runTransport(ctx context.Context, o options) {
	header("transport family: EDNS0 buffers, truncation, and DoTCP fallback")
	var items []dikes.CampaignItem
	for _, flood := range []float64{0, 0.5, 0.9} {
		items = append(items, item(dikes.TransportScenario(dikes.TransportSpec{Flood: flood}), o.traced()))
	}
	fmt.Printf("\nanswer rate per (EDNS0 buffer, fallback coverage) population\n")
	for _, out := range o.run(ctx, "transport", items) {
		fmt.Print(dikes.RenderTransport(out.Transport))
		fmt.Println()
	}
}

func runPassive(seed int64) {
	header("§4 production zones (Figures 4-5)")
	nl := dikes.RunNl(dikes.NlConfig{Seed: seed})
	fmt.Printf("Figure 4: ECDF of median inter-arrival at .nl (TTL 3600)\n")
	for _, p := range nl.ECDF.Points(20) {
		fmt.Printf("  dt<=%7.0fs  cdf=%.3f\n", p.X, p.Y)
	}
	fmt.Printf("closely-timed excluded: %.1f%%  at-TTL: %.1f%%  early re-query: %.1f%%\n",
		100*nl.Analysis.ExcludedFrac, 100*nl.FracAtTTL, 100*nl.FracBelowTTL)
	writeCSV("fig4-nl-ecdf.csv", dikes.ECDFCSV(nl.ECDF, 100))

	root := dikes.RunRoot(dikes.RootConfig{Seed: seed})
	writeCSV("fig5-root-all.csv", dikes.ECDFCSV(root.All, 100))
	fmt.Printf("\nFigure 5: queries per recursive for the nl DS at the roots\n")
	fmt.Printf("single-query recursives: %.1f%%  heaviest source: %d queries/day\n",
		100*root.FracSingleObserved, root.MaxObserved)
	for i, e := range root.PerLetter {
		fmt.Printf("  letter %2d: P(n<=1)=%.3f P(n<=5)=%.3f P(n<=30)=%.3f\n",
			i, e.At(1), e.At(5), e.At(30))
	}
}

func runCheck(ctx context.Context, o options) {
	header("reproduction self-test (paper claims vs this run)")
	cfg := o.config()
	cfg.Workers = o.workers
	out := o.run(ctx, "check", []dikes.CampaignItem{item(dikes.CheckScenario(), cfg)})[0]
	table, ok := dikes.RenderCheck(out.Check)
	fmt.Print(table)
	if !ok {
		fmt.Println("\nself-test FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall claims reproduced")
}

func runImplications(seed int64) {
	header("§8 implications: root-like vs CDN-like under attack")
	res := dikes.RunImplications(dikes.ImplicationsConfig{Seed: seed})
	fmt.Print(dikes.RenderImplications(res))
}

func runRetries(seed int64) {
	header("§6.2 / Appendix E: software retries (Figure 16)")
	for _, profile := range []dikes.RetryProfile{dikes.BINDLike(), dikes.UnboundLike()} {
		for _, down := range []bool{false, true} {
			res := dikes.RunRetryTrials(profile, down, 100, seed)
			state := "up  "
			if down {
				state = "down"
			}
			fmt.Printf("%-8s %s  root=%5.1f  net=%5.1f  cachetest.net=%5.1f  total=%5.1f  answered=%d/%d\n",
				profile.Name, state, res.Mean.Root, res.Mean.Net, res.Mean.Target,
				res.Mean.Total(), res.Answered, res.Trials)
		}
	}
}
