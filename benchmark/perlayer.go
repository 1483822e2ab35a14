package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/ddos"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/vantage"
	"repro/internal/zone"
)

// cellPlan is what one cell of a simulator workload does, spelled out
// against the public API so the traced pass can time its phases.
type cellPlan struct {
	ttl      uint32
	interval time.Duration
	rounds   int
	total    time.Duration
	attack   *ddos.Attack // nil: no disruption
}

// planOf derives the cell plan from a compiled item.
func planOf(item experiment.CampaignItem) (cellPlan, error) {
	if sc, ok := item.Scenario.(interface{ Spec() experiment.DDoSSpec }); ok {
		s := sc.Spec()
		if len(s.Phases) > 0 || !s.TargetsAll {
			return cellPlan{}, fmt.Errorf("traced pass supports single-window attacks on every authoritative only")
		}
		return cellPlan{ttl: s.TTL, interval: s.ProbeInterval, rounds: int(s.TotalDur / s.ProbeInterval),
			total:  s.TotalDur,
			attack: &ddos.Attack{Loss: s.Loss, Start: s.DDoSStart, Duration: s.DDoSDur}}, nil
	}
	c := item.Config
	if c.TTL == 0 || c.ProbeInterval == 0 || c.Rounds == 0 {
		return cellPlan{}, fmt.Errorf("caching spec must set workload.ttl, probe_interval and rounds")
	}
	return cellPlan{ttl: c.TTL, interval: c.ProbeInterval, rounds: c.Rounds,
		total: time.Duration(c.Rounds) * c.ProbeInterval}, nil
}

// cellSeed is the engine's cell-seed derivation (experiment.mixSeed is
// unexported). The traced pass checks its cell against an untraced run
// of the same cell, so a drift from the engine's derivation fails loudly.
func cellSeed(seed int64, cell int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(cell+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// build assembles a cell's testbed; simulate schedules the workload on
// it and runs the virtual clock to the horizon.
func (p cellPlan) build(item experiment.CampaignItem, probes int, seed int64) *experiment.Testbed {
	return experiment.NewTestbed(experiment.TestbedConfig{
		Probes: probes, TTL: p.ttl, Seed: seed,
		Population: item.Config.Population, KeepAuthLog: true,
	})
}

func (p cellPlan) simulate(tb *experiment.Testbed) {
	if p.attack != nil {
		a := *p.attack
		a.Targets = tb.AuthAddrs
		ddos.Schedule(tb.Clk, tb.Net, a)
	}
	tb.ScheduleRotations(p.total + experiment.RotationInterval)
	tb.Fleet.Schedule(tb.Start, p.interval, 5*time.Minute, p.rounds)
	tb.Clk.RunUntil(tb.Start.Add(p.total + 10*time.Minute))
}

// capture runs one small cell with a tap copying every wire message, and
// returns the testbed plus the messages (all, and the queries that
// reached the cachetest.nl authoritatives).
func (p cellPlan) capture(item experiment.CampaignItem, probes int) (tb *experiment.Testbed, all, authQueries [][]byte) {
	const keep = 1 << 15
	tb = p.build(item, probes, cellSeed(item.Config.Seed, 0))
	isAuth := make(map[netsim.Addr]bool)
	for _, a := range tb.AuthAddrs {
		isAuth[a] = true
	}
	tb.Net.AddTap(func(ev netsim.Event) {
		if len(all) < keep {
			all = append(all, append([]byte(nil), ev.Payload...))
		}
		if isAuth[ev.Dst] && isQuery(ev.Payload) && len(authQueries) < keep {
			authQueries = append(authQueries, append([]byte(nil), ev.Payload...))
		}
	})
	p.simulate(tb)
	return tb, all, authQueries
}

// simPerLayer is the traced pass of a simulator workload. Counts and
// ratios come from an untraced full-spec run's report; host-time shares
// from one cell re-run phase by phase through the public API and from
// the layer probes.
func simPerLayer(ctx context.Context, w workload, o options) (result, error) {
	var res result
	rec := newRecorder()
	root, rootDone := rec.open(0, w.name)
	req := simChild{Workload: w.name, Seed: o.seed, Probes: o.size.simProbes, ShardProbes: o.size.simShardProbes}
	v := make(map[string]float64)

	// Untraced reference runs, each in a fresh process: the spec as
	// written (2 shards) and the same cells on 1 shard.
	var two, one simRep
	var err error
	rec.timed(root, "experiment.run shards=2", func() { two, _, err = spawnSim(ctx, req) })
	if err != nil {
		return res, err
	}
	req.Shards = 1
	rec.timed(root, "experiment.run shards=1", func() { one, _, err = spawnSim(ctx, req) })
	if err != nil {
		return res, err
	}
	res.Attempted = two.Probes + one.Probes
	for _, r := range []simRep{two, one} {
		if r.Failure != "" {
			fmt.Println("FAILED:", r.Failure)
			res.Failed += r.Probes
		}
	}
	if one.Digest != two.Digest {
		fmt.Printf("FAILED: report digest differs between shards=2 (%s) and shards=1 (%s)\n", two.Digest, one.Digest)
		res.Failed += one.Probes
	}
	snap := two.Metrics
	probes := float64(two.Probes)
	v["experiment.probes_per_s"] = probes / two.WallS
	v["experiment.alloc_bytes_per_probe"] = float64(two.AllocBytes) / probes
	v["experiment.allocs_per_probe"] = float64(two.Mallocs) / probes
	v["parallel.speedup_2"] = one.WallS / two.WallS
	reportCounts(v, snap, probes, two.WallS)

	// The traced cell: cell 0 of the spec, first untraced through the
	// campaign runner, then phase by phase.
	var item experiment.CampaignItem
	rec.timed(root, "spec.compile", func() { item, err = compileSim(req) })
	if err != nil {
		return res, err
	}
	plan, err := planOf(item)
	if err != nil {
		return res, err
	}
	cellProbes := min(item.Config.Probes, item.Config.ShardProbes)
	single := item
	single.Config.Probes, single.Config.Shards = cellProbes, 1
	out, untracedWall, err := runItem(ctx, single)
	if err != nil {
		return res, fmt.Errorf("untraced cell: %w", err)
	}
	cell, cellDone := rec.open(root, "cell 0")
	var tb *experiment.Testbed
	var cellSnap metrics.Snapshot
	build := rec.timed(cell, "build", func() { tb = plan.build(item, cellProbes, cellSeed(item.Config.Seed, 0)) })
	simulate := rec.timed(cell, "simulate", func() { plan.simulate(tb) })
	collect := rec.timed(cell, "collect", func() { vantage.ByVP(tb.Fleet.AllAnswers()) })
	report := rec.timed(cell, "report", func() { cellSnap = tb.CollectMetrics().Snapshot() })
	cellDone()
	res.Attempted += cellProbes
	if a, b := mustJSON(cellSnap), mustJSON(out.Report.Metrics); a != b {
		fmt.Println("FAILED: the traced cell's counters differ from the untraced run of the same cell")
		res.Failed += cellProbes
	}
	events := counter(cellSnap, "clock", "events_fired")
	v["experiment.build_s"] = build.Seconds()
	v["experiment.simulate_s"] = simulate.Seconds()
	v["experiment.collect_s"] = collect.Seconds()
	v["experiment.report_s"] = report.Seconds()
	v["experiment.ns_per_event"] = ratio(float64(simulate.Nanoseconds()), events)
	tracedTotal := build + simulate + collect + report
	v["experiment.trace_overhead_share"] = tracedTotal.Seconds()/untracedWall.Seconds() - 1

	// Layer probes, on inputs captured from a small cell of this spec.
	probesSpan, probesDone := rec.open(root, "layer probes")
	pr := &prober{rec: rec, parent: probesSpan, d: o.size.probeFor, values: v}
	small, wire, authQueries := plan.capture(item, min(256, cellProbes))
	names := make([]string, cellProbes)
	for i := range names {
		names[i] = vantage.QName(uint16(i+1), experiment.Domain)
	}
	hints := []recursive.ServerHint{{Name: "a.root-servers.net.", Addr: experiment.RootAddr}}
	hierarchy := plan.build(item, 64, 1)
	loss := 0.9
	if plan.attack != nil {
		loss = plan.attack.Loss
	}
	answers := small.Fleet.AllAnswers()
	for _, err := range []error{
		pr.wire(wire),
		pr.zoneAndAuth(small.AuthZone, small.AuthZone.MarshalString(), authQueries),
		pr.cacheOps(names, plan.ttl),
		pr.clockAndNet(loss),
		pr.resolver(hierarchy.Clk, hierarchy.Net, hints, names[0], names[:64]),
		pr.stubRound(names[0]),
	} {
		if err != nil {
			return res, err
		}
	}
	ns := pr.measure("vantage.collect_ns_per_answer", "", func(int) { vantage.ByVP(small.Fleet.AllAnswers()) })
	v["vantage.collect_ns_per_answer"] = ratio(ns, float64(len(answers)))
	pr.measure("spec.compile_ns", "", func(int) {
		if _, cerr := compileSim(req); cerr != nil {
			err = cerr
		}
	})
	probesDone()
	rootDone()
	if err != nil {
		return res, err
	}

	fmt.Printf("workload %s seed %d report digest %s (traced pass)\n", w.name, o.seed, two.Digest)
	fmt.Printf("  traced cell 0, %d probes, %.0f events: build %.3f s, simulate %.3f s, collect %.3f s, report %.3f s (self time; untraced %.3f s)\n",
		cellProbes, events, build.Seconds(), simulate.Seconds(), collect.Seconds(), report.Seconds(), untracedWall.Seconds())
	fmt.Printf("  cell span self time outside its phases: %.6f s\n", float64(rec.selfNs(cell))/1e9)
	c := func(scope, name string) float64 { return counter(cellSnap, scope, name) }
	sent := c("netsim", "sent")
	v["experiment.budget_coverage"] = printBudget([]layerRow{
		{"netsim", "Send -> deliver (incl. its event)", sent - c("netsim", "dropped"), v["netsim.send_deliver_ns"], true},
		{"netsim", "Send -> drop (incl. its event)", c("netsim", "dropped"), v["netsim.send_drop_ns"], true},
		{"clock", "timer schedule + fire", events - sent, v["clock.schedule_fire_ns"], true},
		{"clock", "timer schedule + stop", c("clock", "timers_stopped"), v["clock.schedule_stop_ns"], true},
		{"dnswire", "pack (once per packet sent)", sent, v["dnswire.pack_ns"], true},
		{"dnswire", "unpack (receivers + auth tap)", c("netsim", "delivered") + c("testbed", "auth_arrivals"), v["dnswire.unpack_ns"], true},
		{"zone", "Lookup (per authoritative query)", c("authoritative", "queries"), v["zone.lookup_ns"], true},
		{"cache", "Get", c("cache", "hits") + c("cache", "misses") + c("cache", "negative_hits") + c("cache", "stale_hits"), v["cache.get_hit_ns"], true},
		{"cache", "Peek", c("cache", "peek_hits") + c("cache", "peek_misses"), v["cache.peek_ns"], true},
		{"cache", "Put", c("cache", "puts"), v["cache.put_ns"], true},
		{"authoritative", "HandleWire (unpack+lookup+pack)", c("authoritative", "queries"), v["authoritative.handle_wire_ns"], false},
		{"recursive", "Resolve, cold (whole chain)", c("resolver", "cache_misses"), v["recursive.resolve_cold_ns"], false},
		{"stub", "Query round (incl. netsim, codec)", c("vantage", "queries_sent"), v["stub.query_round_ns"], false},
	}, simulate.Seconds())
	fmt.Printf("  ns_per_event %.1f  trace_overhead_share %.4f  speedup_2 %.3f\n",
		v["experiment.ns_per_event"], v["experiment.trace_overhead_share"], v["parallel.speedup_2"])
	if path, werr := rec.write(); werr != nil {
		return res, werr
	} else {
		fmt.Printf("  spans written to %s\n", path)
	}
	res.Correct = res.Failed == 0
	res.Metrics, err = fillMetrics(perLayer, v, true)
	return res, err
}

// reportCounts fills the count and ratio metrics from a run report's
// snapshot; they repeat exactly for a seed.
func reportCounts(v map[string]float64, s metrics.Snapshot, probes, wallS float64) {
	c := func(scope, name string) float64 { return counter(s, scope, name) }
	for _, name := range []string{"hits", "misses", "puts", "stale_hits", "evictions"} {
		v["cache."+name] = c("cache", name)
	}
	v["cache.hit_ratio"] = ratio(c("cache", "hits"), c("cache", "hits")+c("cache", "misses"))
	for _, name := range []string{"events_fired", "events_scheduled", "timers_stopped"} {
		v["clock."+name] = c("clock", name)
	}
	v["clock.stop_ratio"] = ratio(c("clock", "timers_stopped"), c("clock", "events_scheduled"))
	v["clock.events_per_probe"] = ratio(c("clock", "events_fired"), probes)
	v["clock.events_per_s"] = ratio(c("clock", "events_fired"), wallS)
	for _, name := range []string{"sent", "delivered", "dropped"} {
		v["netsim."+name] = c("netsim", name)
	}
	v["netsim.drop_ratio"] = ratio(c("netsim", "dropped"), c("netsim", "sent"))
	v["authoritative.queries"] = c("authoritative", "queries")
	resolverCounts(v, func(name string) float64 { return c("resolver", name) })
	v["vantage.queries_sent"] = c("vantage", "queries_sent")
	v["vantage.timeouts"] = c("vantage", "timeouts")
	v["vantage.answered_share"] = ratio(c("vantage", "queries_sent")-c("vantage", "timeouts"), c("vantage", "queries_sent"))
}

// resolverCounts fills the recursive.* counts and wasted-work ratios
// from the resolver scope, however it was obtained.
func resolverCounts(v map[string]float64, c func(name string) float64) {
	for _, name := range []string{"client_queries", "upstream_queries", "upstream_retries", "timeouts", "servfails", "stale_serves"} {
		v["recursive."+name] = c(name)
	}
	up := c("upstream_queries")
	v["recursive.upstream_per_client"] = ratio(up, c("client_queries"))
	v["recursive.retry_share"] = ratio(c("upstream_retries"), up)
	v["recursive.useful_share"] = ratio(up-c("timeouts"), up)
	v["recursive.miss_share"] = ratio(c("cache_misses"), c("client_queries"))
}

func mustJSON(x any) string {
	b, err := json.Marshal(x)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}

// daemonPerLayer is the traced pass of a daemon workload: one instance,
// one span per request, daemon-side counters scraped around the window,
// the udprun echo floor, and probes of the layers the workload crosses.
func daemonPerLayer(ctx context.Context, w workload, o options) (result, error) {
	var res result
	env, err := prepareDaemons(ctx, o)
	if err != nil {
		return res, err
	}
	defer env.release()
	rec := newRecorder()
	root, rootDone := rec.open(0, w.name)
	var set *daemonSet
	rec.timed(root, "setup", func() { set, _, err = setupDaemons(ctx, w, o, env) })
	if err != nil {
		return res, err
	}
	zoneText, err := os.ReadFile(set.zoneFile)
	if err != nil {
		set.close()
		return res, err
	}
	loadSpan, loadDone := rec.open(root, "load")
	ld, err := runLoad(ctx, set, o, o.seconds/2, rec, loadSpan)
	loadDone()
	clean := true
	if cerr := set.close(); cerr != nil {
		fmt.Println("FAILED:", cerr)
		clean = false
	}
	if err != nil {
		return res, err
	}
	v := make(map[string]float64)
	answered := float64(len(ld.latUs))
	v["udprun.latency_p50_us"] = percentile(ld.latUs, 0.50)
	v["udprun.latency_p99_us"] = percentile(ld.latUs, 0.99)
	v["udprun.latency_p999_us"] = percentile(ld.latUs, 0.999)
	v["authd.cpu_us_per_query"] = ratio(1e6*ld.cpuS["authd"], answered)
	v["recursived.cpu_us_per_query"] = ratio(1e6*ld.cpuS["recursived"], answered)
	v["authoritative.queries"] = ld.delta("authoritative_queries")
	for _, name := range []string{"hits", "misses", "puts", "stale_hits", "evictions"} {
		v["cache."+name] = ld.delta("cache_" + name)
	}
	v["cache.hit_ratio"] = ratio(v["cache.hits"], v["cache.hits"]+v["cache.misses"])
	resolverCounts(v, func(name string) float64 { return ld.delta("resolver_" + name) })
	v["recursive.hit_latency_p50_us"] = 0
	v["recursive.miss_latency_p50_us"] = 0
	if w.recursive {
		v["recursive.hit_latency_p50_us"] = percentile(ld.hitUs, 0.50)
		v["recursive.miss_latency_p50_us"] = percentile(ld.missUs, 0.50)
	}

	probesSpan, probesDone := rec.open(root, "layer probes")
	pr := &prober{rec: rec, parent: probesSpan, d: o.size.probeFor, values: v}
	z, err := zone.ParseString(string(zoneText), "")
	if err != nil {
		return res, err
	}
	var queries [][]byte
	for _, b := range ld.wire {
		if isQuery(b) {
			queries = append(queries, b)
		}
	}
	for _, err := range []error{pr.udpFloor(), pr.wire(ld.wire), pr.zoneAndAuth(z, string(zoneText), queries)} {
		if err != nil {
			return res, err
		}
	}
	if w.recursive {
		// The same hierarchy on the virtual clock: the zone behind one
		// hinted server, hot names for hits, never-seen wildcard names
		// for the miss path.
		clk := clock.NewVirtual(probeEpoch)
		net := netsim.New(clk, 1)
		authoritative.New(z).Attach(net, "auth")
		hot := make([]string, len(set.hot))
		cold := make([]string, 4096)
		for i, n := range set.hot {
			hot[i] = zoneName(n)
		}
		for i := range cold {
			cold[i] = fmt.Sprintf("probe%d.u.%s", i, benchOrigin)
		}
		hints := []recursive.ServerHint{{Name: "hint.auth.", Addr: "auth"}}
		for _, err := range []error{pr.cacheOps(hot, 3600), pr.resolver(clk, net, hints, hot[0], cold)} {
			if err != nil {
				return res, err
			}
		}
	}
	probesDone()
	rootDone()

	fmt.Printf("workload %s seed %d (traced pass): %d clients, closed loop, loopback, %.2f s window\n",
		w.name, o.seed, clients, ld.window.Seconds())
	if ld.failed > 0 {
		fmt.Printf("FAILED: %d of %d queries; first: %s\n", ld.failed, ld.attempted, ld.firstFailure)
	}
	fmt.Printf("  latency us p50 %.1f p99 %.1f p99.9 %.1f (n=%d); udprun echo floor %.1f us\n",
		v["udprun.latency_p50_us"], v["udprun.latency_p99_us"], v["udprun.latency_p999_us"], len(ld.latUs), v["udprun.echo_rtt_us"])
	fmt.Printf("  cpu us/query: authd %.2f, recursived %.2f; authoritative.queries %.0f; recursive.miss_share %.4f\n",
		v["authd.cpu_us_per_query"], v["recursived.cpu_us_per_query"], v["authoritative.queries"], v["recursive.miss_share"])
	if w.recursive {
		fmt.Printf("  hit p50 %.1f us (n=%d), miss p50 %.1f us (n=%d)\n",
			v["recursive.hit_latency_p50_us"], len(ld.hitUs), v["recursive.miss_latency_p50_us"], len(ld.missUs))
	}
	if path, werr := rec.write(); werr != nil {
		return res, werr
	} else {
		fmt.Printf("  spans written to %s\n", path)
	}
	res.Attempted, res.Failed = ld.attempted, ld.failed
	res.Correct = ld.failed == 0 && ld.attempted > 0 && clean
	res.Metrics, err = fillMetrics(perLayer, v, true)
	return res, err
}
