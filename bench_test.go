// Benchmarks regenerating every table and figure of "When the Dike
// Breaks" at a reduced probe count (the cmd/dikes tool runs the same
// experiments at paper scale). Each benchmark prints the paper-style
// rows/series on its first iteration and reports headline numbers as
// custom metrics, so `go test -bench=. -benchmem` doubles as the full
// reproduction harness.
package dikes_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/parallel"

	dikes "repro"
)

// benchProbes scales the vantage-point fleet for benchmarks.
const benchProbes = 150

// printOnce emits the rendered table on the first iteration only.
func printOnce(b *testing.B, i int, title, body string) {
	b.Helper()
	if i == 0 {
		fmt.Printf("\n=== %s (%s) ===\n%s", title, b.Name(), body)
	}
}

// mustRun executes one scenario to completion; the paper specs and
// context.Background leave Run nothing to fail on.
func mustRun(sc dikes.Scenario, cfg dikes.RunConfig) *dikes.Outcome {
	out, err := dikes.Run(context.Background(), sc, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

// runDDoS runs one attack spec at the benchmarks' fixed seed.
func runDDoS(spec dikes.DDoSSpec, probes int, pop dikes.PopulationConfig) *dikes.DDoSResult {
	return mustRun(dikes.DDoSScenario(spec), dikes.RunConfig{Probes: probes, Seed: 7, Population: pop}).DDoS
}

// runMatrix runs one attack per spec as a campaign on workers goroutines.
func runMatrix(specs []dikes.DDoSSpec, probes, workers int) []*dikes.DDoSResult {
	items := make([]dikes.CampaignItem, len(specs))
	for i, spec := range specs {
		items[i] = dikes.CampaignItem{Name: spec.Name, Scenario: dikes.DDoSScenario(spec),
			Config: dikes.RunConfig{Probes: probes, Seed: 7}}
	}
	results, err := dikes.RunCampaign(context.Background(), items, workers)
	if err != nil {
		panic(err)
	}
	out := make([]*dikes.DDoSResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Outcome.DDoS
	}
	return out
}

// --- §3 caching baseline: Tables 1-3, Figures 3 and 13 ---

func runCachingTTL(seed int64, ttl uint32, interval time.Duration) *dikes.CachingResult {
	return mustRun(dikes.CachingScenario(), dikes.RunConfig{
		Probes: benchProbes, TTL: ttl, ProbeInterval: interval,
		Rounds: 6, Seed: seed,
	}).Caching
}

func BenchmarkTable1CachingBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := []*dikes.CachingResult{
			runCachingTTL(1, 60, 20*time.Minute),
			runCachingTTL(1, 1800, 20*time.Minute),
			runCachingTTL(1, 3600, 20*time.Minute),
			runCachingTTL(1, 86400, 20*time.Minute),
			runCachingTTL(1, 3600, 10*time.Minute),
		}
		printOnce(b, i, "Table 1: caching baseline populations", dikes.RenderTable1(results))
		b.ReportMetric(float64(results[2].Table1.VPs), "VPs")
	}
}

func BenchmarkTable2Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := []*dikes.CachingResult{
			runCachingTTL(1, 60, 20*time.Minute),
			runCachingTTL(1, 1800, 20*time.Minute),
			runCachingTTL(1, 3600, 20*time.Minute),
			runCachingTTL(1, 86400, 20*time.Minute),
		}
		printOnce(b, i, "Table 2: answer classification (AA/CC/AC/CA)", dikes.RenderTable2(results))
		b.ReportMetric(100*results[2].MissRate, "miss_pct_3600")
	}
}

func BenchmarkFigure3WarmCacheHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCachingTTL(1, 3600, 20*time.Minute)
		t2 := res.Table2
		body := fmt.Sprintf("AA=%d CC=%d AC=%d CA=%d  miss=%.1f%%\n",
			t2.AA, t2.CC, t2.AC, t2.CA, 100*res.MissRate)
		printOnce(b, i, "Figure 3: warm-cache classification histogram (TTL 3600)", body)
		b.ReportMetric(100*res.MissRate, "miss_pct")
	}
}

func BenchmarkTable3PublicResolvers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := []*dikes.CachingResult{
			runCachingTTL(1, 1800, 20*time.Minute),
			runCachingTTL(1, 3600, 20*time.Minute),
		}
		printOnce(b, i, "Table 3: AC answers by public resolver", dikes.RenderTable3(results))
		t3 := results[1].Table3
		if t3.ACAnswers > 0 {
			b.ReportMetric(100*float64(t3.PublicR1)/float64(t3.ACAnswers), "public_share_pct")
		}
	}
}

func BenchmarkFigure13AnswerTypeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCachingTTL(1, 1800, 20*time.Minute)
		printOnce(b, i, "Figure 13: answer types over time (TTL 1800)",
			res.Fig13.Table([]string{"AA", "CC", "AC", "CA", "Warmup"}))
	}
}

// --- §4 production zones: Figures 4 and 5 ---

func BenchmarkFigure4NlInterarrival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := dikes.RunNl(dikes.NlConfig{Resolvers: 2000, Seed: 4})
		var body string
		for _, p := range res.ECDF.Points(10) {
			body += fmt.Sprintf("  dt<=%6.0fs  cdf=%.2f\n", p.X, p.Y)
		}
		body += fmt.Sprintf("excluded(<10s)=%.1f%%  at-TTL=%.1f%%  early=%.1f%%\n",
			100*res.Analysis.ExcludedFrac, 100*res.FracAtTTL, 100*res.FracBelowTTL)
		printOnce(b, i, "Figure 4: ECDF of median inter-arrival at .nl", body)
		b.ReportMetric(100*res.FracBelowTTL, "early_requery_pct")
	}
}

func BenchmarkFigure5RootDS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := dikes.RunRoot(dikes.RootConfig{Resolvers: 7000, Seed: 5})
		body := fmt.Sprintf("single-query recursives: %.1f%%  max queries: %d\n",
			100*res.FracSingleObserved, res.MaxObserved)
		lo := res.FracAtLeast5PerLetter[0]
		hi := res.FracAtLeast5PerLetter[len(res.FracAtLeast5PerLetter)-1]
		body += fmt.Sprintf("5+ queries per letter: friendliest=%.1f%% worst=%.1f%%\n", 100*lo, 100*hi)
		printOnce(b, i, "Figure 5: queries per recursive for nl DS at the roots", body)
		b.ReportMetric(100*res.FracSingleObserved, "single_query_pct")
	}
}

// BenchmarkFigure4FromSimulation derives the .nl inter-arrival analysis
// from a real simulated run (no synthesized trace): honoring resolvers
// re-fetch at the TTL, capped ones early, harvest bursts are excluded as
// closely-timed.
func BenchmarkFigure4FromSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := dikes.RunNlFromSim(dikes.NlSimConfig{Probes: benchProbes, Seed: 3})
		body := fmt.Sprintf("recursives=%d honoring=%.1f%% early=%.1f%% closely-timed=%.1f%% median=%.0fs\n",
			len(res.Analysis.Medians), 100*res.FracAtTTL, 100*res.FracBelowTTL,
			100*res.Analysis.ExcludedFrac, res.ECDF.InverseAt(0.5))
		printOnce(b, i, "Figure 4 (simulation-derived): NS re-fetch inter-arrivals", body)
		b.ReportMetric(100*res.FracAtTTL, "honoring_pct")
	}
}

// --- §5 DDoS emulations: Table 4, Figures 6-9, 14-15 ---

func runSpec(b *testing.B, name string) *dikes.DDoSResult {
	b.Helper()
	spec, ok := dikes.SpecByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	return runDDoS(spec, benchProbes, dikes.PopulationConfig{})
}

func BenchmarkTable4DDoSMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runMatrix(dikes.PaperExperiments, benchProbes/2, 0)
		printOnce(b, i, "Table 4: DDoS experiment matrix A-I", dikes.RenderTable4(results))
	}
}

// BenchmarkTable4DDoSMatrixSequential is the same matrix pinned to one
// worker — the benchstat baseline for the parallel speedup.
func BenchmarkTable4DDoSMatrixSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runMatrix(dikes.PaperExperiments, benchProbes/2, 1)
		printOnce(b, i, "Table 4 (sequential): DDoS experiment matrix A-I", dikes.RenderTable4(results))
	}
}

// BenchmarkParallelMatrix is a down-scaled matrix for the `make check`
// smoke run: three experiments at a quarter of the bench probe count.
func BenchmarkParallelMatrix(b *testing.B) {
	specs := []dikes.DDoSSpec{}
	for _, name := range []string{"A", "E", "I"} {
		spec, ok := dikes.SpecByName(name)
		if !ok {
			b.Fatalf("unknown experiment %q", name)
		}
		specs = append(specs, spec)
	}
	for i := 0; i < b.N; i++ {
		results := runMatrix(specs, benchProbes/4, 0)
		if len(results) != len(specs) {
			b.Fatalf("got %d results for %d specs", len(results), len(specs))
		}
	}
}

func BenchmarkFigure6CompleteFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"A", "B", "C"} {
			res := runSpec(b, name)
			printOnce(b, i, "Figure 6"+name+": answers during complete failure (exp "+name+")",
				res.Answers.Table([]string{"OK", "SERVFAIL", "NoAnswer"}))
			if name == "A" {
				b.ReportMetric(100*res.FailureRate(9), "expA_postcache_fail_pct")
			}
		}
	}
}

func BenchmarkFigure7ExperimentBSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSpec(b, "B")
		printOnce(b, i, "Figure 7: AA/CC/CA time series, experiment B",
			res.Classes.Table([]string{"AA", "CC", "CA"}))
	}
}

func BenchmarkFigure8PartialFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"E", "F", "H", "I"} {
			res := runSpec(b, name)
			printOnce(b, i, "Figure 8: answers during partial failure (exp "+name+")",
				res.Answers.Table([]string{"OK", "SERVFAIL", "NoAnswer"}))
			b.ReportMetric(100*res.FailureRate(9), "exp"+name+"_fail_pct")
		}
	}
}

func BenchmarkFigure9Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"E", "F", "H", "I"} {
			res := runSpec(b, name)
			printOnce(b, i, "Figure 9: latency quantiles (exp "+name+")", dikes.RenderLatency(res))
			if name == "I" {
				b.ReportMetric(res.Latency[9].Median, "expI_median_ms")
			}
		}
	}
}

func BenchmarkFigure14ExtraDDoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"D", "G"} {
			res := runSpec(b, name)
			printOnce(b, i, "Figure 14: answers (exp "+name+")",
				res.Answers.Table([]string{"OK", "SERVFAIL", "NoAnswer"}))
			b.ReportMetric(100*res.FailureRate(9), "exp"+name+"_fail_pct")
		}
	}
}

func BenchmarkFigure15ExtraLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"D", "G"} {
			res := runSpec(b, name)
			printOnce(b, i, "Figure 15: latency quantiles (exp "+name+")", dikes.RenderLatency(res))
		}
	}
}

// --- §6 authoritative's perspective: Figures 10-12, 16, Table 7 ---

func runSpecFullHarvest(b *testing.B, name string) *dikes.DDoSResult {
	b.Helper()
	spec, ok := dikes.SpecByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	return runDDoS(spec, benchProbes, dikes.PopulationConfig{Harvest: dikes.HarvestFull})
}

func BenchmarkFigure10AuthLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"F", "H", "I"} {
			res := runSpecFullHarvest(b, name)
			printOnce(b, i, "Figure 10: queries at the authoritatives (exp "+name+")",
				res.AuthQueries.Table([]string{"NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID"}))
			if name == "H" {
				base := res.AuthQueries.Get(4, "AAAA-for-PID")
				atk := res.AuthQueries.Get(9, "AAAA-for-PID")
				if base > 0 {
					b.ReportMetric(atk/base, "expH_traffic_multiplier")
				}
			}
		}
	}
}

func BenchmarkFigure11Amplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSpecFullHarvest(b, "I")
		printOnce(b, i, "Figure 11: Rn and AAAA queries per probe (exp I)",
			dikes.RenderAmplification(res))
		if len(res.RnPerProbe) > 9 {
			b.ReportMetric(res.RnPerProbe[9].Median, "rn_median_attack")
		}
	}
}

func BenchmarkFigure12UniqueRecursives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"F", "H", "I"} {
			res := runSpecFullHarvest(b, name)
			printOnce(b, i, "Figure 12: unique Rn at the authoritatives (exp "+name+")",
				dikes.RenderUniqueRn(res))
		}
	}
}

func BenchmarkFigure16SoftwareRetries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var body string
		for _, profile := range []dikes.RetryProfile{dikes.BINDLike(), dikes.UnboundLike()} {
			for _, down := range []bool{false, true} {
				res := dikes.RunRetryTrials(profile, down, 25, 3)
				state := "up"
				if down {
					state = "down"
				}
				body += fmt.Sprintf("%-8s %-5s root=%.1f net=%.1f cachetest.net=%.1f total=%.1f\n",
					profile.Name, state, res.Mean.Root, res.Mean.Net,
					res.Mean.Target, res.Mean.Total())
			}
		}
		printOnce(b, i, "Figure 16: queries by recursive software, up vs down", body)
	}
}

func BenchmarkTable7PerProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, _ := dikes.SpecByName("I")
		out := mustRun(dikes.DDoSScenario(spec), dikes.RunConfig{
			Probes: benchProbes, Seed: 7, KeepWorlds: true,
			Population: dikes.PopulationConfig{Harvest: dikes.HarvestFull},
		})
		probe := out.Worlds.BusiestProbe()
		printOnce(b, i, "Table 7: per-probe client vs authoritative view (exp I)",
			dikes.RenderTable7(out.Worlds.PerProbe(out.DDoS, probe)))
	}
}

// --- Appendix A: Tables 5-6 ---

func BenchmarkTable5GlueVsAuth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(dikes.GlueScenario(), dikes.RunConfig{Probes: benchProbes, Seed: 7}).Glue
		printOnce(b, i, "Table 5: glue vs authoritative TTL in answers", dikes.RenderTable5(res))
		b.ReportMetric(100*res.NS.AuthoritativeShare(), "child_share_pct")
	}
}

func BenchmarkTable6ChildCentricTTL(b *testing.B) {
	// The cache-dump reproduction of Listings 3-4: an NS answer from the
	// child replaces the longer-TTL glue in the resolver cache.
	epoch := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		clk := clock.NewVirtual(epoch)
		c := cache.New(clk, cache.Config{})
		glue := dnswire.RR{Name: "amazon.com.", Class: dnswire.ClassIN, TTL: 172800,
			Data: dnswire.NS{Host: "ns1.p31.dynect.net."}}
		auth := glue
		auth.TTL = 3600
		c.Put(cache.Key{Name: "amazon.com.", Type: dnswire.TypeNS},
			cache.Entry{Records: []dnswire.RR{glue}, Rank: cache.RankAuthority}, 0)
		c.Put(cache.Key{Name: "amazon.com.", Type: dnswire.TypeNS},
			cache.Entry{Records: []dnswire.RR{auth}, Rank: cache.RankAnswer}, 0)
		dump := c.Dump(0)
		if len(dump) != 1 || dump[0].TTL != 3600 {
			b.Fatalf("cache dump = %v", dump)
		}
		printOnce(b, i, "Table 6 / Listings 3-4: cache stores the child's TTL",
			fmt.Sprintf("  %s\n", dump[0]))
	}
}

// BenchmarkSection8RootVsCDN regenerates the paper's §8 comparison: the
// root-like service (day-long TTLs, anycast letters) vs the CDN-like
// service (120 s TTLs, two unicast NSes) under simultaneous attack.
func BenchmarkSection8RootVsCDN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := dikes.RunImplications(dikes.ImplicationsConfig{
			Clients: 200, Recursives: 20, Seed: 3,
		})
		printOnce(b, i, "Section 8: root-like vs CDN-like under attack",
			dikes.RenderImplications(res))
		b.ReportMetric(100*res.RootFailDuringAttack, "root_fail_pct")
		b.ReportMetric(100*res.CDNFailDuringAttack, "cdn_fail_pct")
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

func BenchmarkAblationServeStale(b *testing.B) {
	spec, _ := dikes.SpecByName("A") // complete failure
	for i := 0; i < b.N; i++ {
		var base, stale *dikes.DDoSResult
		parallel.Do(
			func() {
				base = runDDoS(spec, benchProbes, dikes.PopulationConfig{
					FracFarmOther: 0.0001, // effectively no serve-stale farms
				})
			},
			func() {
				stale = runDDoS(spec, benchProbes, dikes.PopulationConfig{
					ServeStaleDirect: true, // universal serve-stale adoption
				})
			},
		)
		body := fmt.Sprintf("post-expiry failure: no-stale=%.1f%% universal-stale=%.1f%%\n",
			100*base.FailureRate(9), 100*stale.FailureRate(9))
		printOnce(b, i, "Ablation: serve-stale adoption vs survival in complete failure", body)
		b.ReportMetric(100*(base.FailureRate(9)-stale.FailureRate(9)), "stale_benefit_pct")
	}
}

func BenchmarkAblationCacheFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mono := mustRun(dikes.CachingScenario(), dikes.RunConfig{
			Probes: benchProbes, TTL: 3600, ProbeInterval: 20 * time.Minute,
			Rounds: 5, Seed: 7,
			Population: dikes.PopulationConfig{GoogleBackends: 1, OtherBackends: 1},
		}).Caching
		frag := mustRun(dikes.CachingScenario(), dikes.RunConfig{
			Probes: benchProbes, TTL: 3600, ProbeInterval: 20 * time.Minute,
			Rounds: 5, Seed: 7,
			Population: dikes.PopulationConfig{GoogleBackends: 32, OtherBackends: 16},
		}).Caching
		body := fmt.Sprintf("miss rate: 1-backend farms=%.1f%% vs 32-backend farms=%.1f%%\n",
			100*mono.MissRate, 100*frag.MissRate)
		printOnce(b, i, "Ablation: cache fragmentation vs miss rate", body)
		b.ReportMetric(100*(frag.MissRate-mono.MissRate), "fragmentation_cost_pct")
	}
}

func BenchmarkAblationTTLUnderAttack(b *testing.B) {
	// Experiments H (TTL 1800) vs I (TTL 60) isolate the TTL's value
	// during a 90% DDoS — the paper's §8 CDN recommendation.
	specH, _ := dikes.SpecByName("H")
	specI, _ := dikes.SpecByName("I")
	for i := 0; i < b.N; i++ {
		var long, short *dikes.DDoSResult
		parallel.Do(
			func() { long = runDDoS(specH, benchProbes, dikes.PopulationConfig{}) },
			func() { short = runDDoS(specI, benchProbes, dikes.PopulationConfig{}) },
		)
		body := fmt.Sprintf("failure under 90%% loss: TTL1800=%.1f%% TTL60=%.1f%%\n",
			100*long.FailureRate(9), 100*short.FailureRate(9))
		body += fmt.Sprintf("median latency: TTL1800=%.0fms TTL60=%.0fms\n",
			long.Latency[9].Median, short.Latency[9].Median)
		printOnce(b, i, "Ablation: TTL length under 90% attack (H vs I)", body)
		b.ReportMetric(100*(short.FailureRate(9)-long.FailureRate(9)), "ttl_benefit_pct")
	}
}

func BenchmarkAblationNameserverReplication(b *testing.B) {
	// Experiment D (one NS attacked) vs E (both attacked) shows the value
	// of NS replication; here we additionally vary the NS count.
	for i := 0; i < b.N; i++ {
		one := runSpec(b, "D")
		both := runSpec(b, "E")
		body := fmt.Sprintf("failure at 50%% loss: one-NS-attacked=%.1f%% both=%.1f%%\n",
			100*one.FailureRate(9), 100*both.FailureRate(9))
		printOnce(b, i, "Ablation: nameserver replication (D vs E)", body)
	}
}

// BenchmarkAblationOverprovisioning sweeps server capacity against a
// fixed volumetric flood — the provisioning question §6 raises ("DNS
// servers are typically heavily overprovisioned; this result suggests the
// need to review by how much").
func BenchmarkAblationOverprovisioning(b *testing.B) {
	spec, _ := dikes.SpecByName("H")
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf("%12s %10s %10s\n", "capacity", "loss", "failures")
		for _, capacity := range []float64{1, 2, 5, 10, 20} {
			flood := dikes.Flood{AttackQPS: 10, CapacityQPS: capacity}
			s := spec
			s.Name = fmt.Sprintf("cap-%gx", capacity)
			s.Loss = flood.LossRate()
			res := runDDoS(s, benchProbes/2, dikes.PopulationConfig{})
			body += fmt.Sprintf("%11gx %9.0f%% %9.1f%%\n",
				capacity, 100*flood.LossRate(), 100*res.FailureRate(9))
		}
		printOnce(b, i, "Ablation: overprovisioning vs a 10-unit flood", body)
	}
}

// BenchmarkAblationPrefetch compares populations with and without
// Unbound-style prefetch through experiment B's complete outage (an
// extension experiment: prefetch refreshes entries just before the attack
// lands, so caches enter the outage fresher).
func BenchmarkAblationPrefetch(b *testing.B) {
	spec, _ := dikes.SpecByName("B")
	for i := 0; i < b.N; i++ {
		var base, pre *dikes.DDoSResult
		parallel.Do(
			func() { base = runDDoS(spec, benchProbes, dikes.PopulationConfig{}) },
			func() { pre = runDDoS(spec, benchProbes, dikes.PopulationConfig{PrefetchDirect: 0.9}) },
		)
		body := fmt.Sprintf("failure 30min into the outage: plain=%.1f%% prefetch=%.1f%%\n",
			100*base.FailureRate(9), 100*pre.FailureRate(9))
		printOnce(b, i, "Ablation: prefetch vs cache age at attack onset (exp B)", body)
		b.ReportMetric(100*(base.FailureRate(9)-pre.FailureRate(9)), "prefetch_benefit_pct")
	}
}

func BenchmarkAblationRetryBudget(b *testing.B) {
	// A single try vs exponential retries against a 90%-loss zone.
	for i := 0; i < b.N; i++ {
		noRetry := dikes.RunRetryTrials(dikes.RetryProfile{
			Name: "no-retry", MaxAttempts: 1, WorkBudget: 8,
		}, false, 20, 3)
		full := dikes.RunRetryTrials(dikes.BINDLike(), false, 20, 3)
		body := fmt.Sprintf("answered (servers up): 1-try=%d/20 retry=%d/20\n",
			noRetry.Answered, full.Answered)
		printOnce(b, i, "Ablation: retry budget", body)
	}
}

// --- Engine micro-benchmarks ---
//
// The per-layer costs (wire pack/unpack, zone lookup, cache put/get/peek,
// cold resolution, packet delivery, tracing overhead) are rows of the
// repo's benchmark — `go run ./benchmark`, BENCHMARK.json per_layer —
// not functions here.

// BenchmarkDNSSECSignVerify measures Ed25519 RRset signing and
// verification.
func BenchmarkDNSSECSignVerify(b *testing.B) {
	key, err := dikes.GenerateKey("bench.nl.", dikes.FlagZone, cryptoRandReader{})
	if err != nil {
		b.Fatal(err)
	}
	rrs := []dikes.RR{{
		Name: "www.bench.nl.", Class: 1, TTL: 300, Data: dikes.MustAAAA("2001:db8::1"),
	}}
	now := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sig, err := key.Sign(rrs, now, now.Add(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if err := dikes.VerifyRRSet(key.Public, sig, rrs, now); err != nil {
			b.Fatal(err)
		}
	}
}

// cryptoRandReader adapts a fixed stream for benchmark key generation.
type cryptoRandReader struct{}

func (cryptoRandReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i * 37)
	}
	return len(p), nil
}

// --- §17 timeline overhead (tentpole of the observability PR) ---

// runTimelineBench executes one sharded spec-H run (TTL 1800, 90% loss)
// with the given timeline configuration.
func runTimelineBench(b *testing.B, tlc *dikes.TimelineConfig) *dikes.Outcome {
	b.Helper()
	spec, ok := dikes.SpecByName("H")
	if !ok {
		b.Fatal("spec H missing")
	}
	out, err := dikes.Run(context.Background(), dikes.DDoSScenario(spec), dikes.RunConfig{
		Probes: 600, Seed: 42, Shards: 2, ShardProbes: 256, Timeline: tlc,
	})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkTimelineOverhead measures the cost of per-bucket series
// collection on the sharded engine: off (the nil-check-only baseline
// every production run pays) and on at the default one-minute bucket.
// The acceptance bar is on-vs-off regression under 2%: observations are
// one array index plus an integer increment, and the per-cell bins are
// a few KB, so collection is effectively free next to the simulator.
func BenchmarkTimelineOverhead(b *testing.B) {
	cases := []struct {
		name string
		tlc  *dikes.TimelineConfig
	}{
		{"off", nil},
		{"on", &dikes.TimelineConfig{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var answered int64
			for i := 0; i < b.N; i++ {
				out := runTimelineBench(b, c.tlc)
				if out.Timeline != nil {
					answered = out.Timeline.Total(dikes.TimelineAnswered)
				}
			}
			b.ReportMetric(float64(answered), "timeline_answered")
		})
	}
}
