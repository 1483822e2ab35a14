package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/classify"
	"repro/internal/dnswire"
	"repro/internal/recursive"
	"repro/internal/vantage"
)

// Small-but-meaningful scales keep the full test suite fast.
const (
	testProbes = 150
	testSeed   = 42
)

// mustRun executes one scenario to completion. Call it from the test's
// own goroutine only.
func mustRun(t *testing.T, sc Scenario, cfg RunConfig) *Outcome {
	t.Helper()
	out, err := Run(context.Background(), sc, cfg)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name(), err)
	}
	return out
}

func TestTestbedBuildsAndRotates(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Probes: 50, TTL: 3600, Seed: 1})
	if len(tb.Auths) != 2 || tb.Pop.VPCount() < 50 {
		t.Fatalf("auths=%d VPs=%d", len(tb.Auths), tb.Pop.VPCount())
	}
	if got := tb.CurrentSerial(); got != 1 {
		t.Errorf("initial serial = %d", got)
	}
	tb.ScheduleRotations(30 * time.Minute)
	tb.Clk.RunFor(25 * time.Minute)
	if got := tb.CurrentSerial(); got != 3 {
		t.Errorf("serial after 25min = %d, want 3", got)
	}
	// The zone serves the round's serial.
	name := vantage.QName(7, Domain)
	rrs := tb.AuthZone.RRSet(name, dnswire.TypeAAAA)
	if len(rrs) != 1 {
		t.Fatalf("AAAA rrset = %v", rrs)
	}
	serial, probeID, encTTL, ok := vantage.DecodeAAAA(rrs[0].Data.(dnswire.AAAA).Addr)
	if !ok || serial != 3 || probeID != 7 || encTTL != 3600 {
		t.Errorf("decoded %d/%d/%d/%v", serial, probeID, encTTL, ok)
	}
}

func TestSerialAt(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Probes: 1, Seed: 1})
	cases := []struct {
		offset time.Duration
		want   uint16
	}{
		{-time.Hour, 1}, {0, 1}, {9 * time.Minute, 1},
		{10 * time.Minute, 2}, {25 * time.Minute, 3},
	}
	for _, c := range cases {
		if got := tb.SerialAt(tb.Start.Add(c.offset)); got != c.want {
			t.Errorf("SerialAt(+%v) = %d, want %d", c.offset, got, c.want)
		}
	}
}

// TestAuthEventPointerFree: the tap log is a run's largest live structure,
// so its events stay small and give the collector nothing to scan.
func TestAuthEventPointerFree(t *testing.T) {
	typ := reflect.TypeOf(AuthEvent{})
	if typ.Size() > 24 {
		t.Errorf("AuthEvent is %d bytes, want at most 24", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Int64:
		default:
			t.Errorf("AuthEvent.%s is a %s", f.Name, f.Type.Kind())
		}
	}
}

// TestAnswerBytes: every probe keeps one answer per query it sends, and
// the log is live until the cell's tallies finish, so the record stays at
// 32 bytes: no probe at all (the log's owner is it) and a one-byte
// recursive index instead of an ID and an address string, Unix
// nanoseconds instead of a time.Time, one outcome byte instead of three
// bools (48 bytes with a probe pointer and the bools).
func TestAnswerBytes(t *testing.T) {
	if size := unsafe.Sizeof(vantage.Answer{}); size > 32 {
		t.Errorf("vantage.Answer is %d bytes, want at most 32", size)
	}
}

// TestLazyResolverBytes: a cell declares thousands of resolvers most of
// which never see a packet, so a handle holds only what differs from its
// kind (the shared variant's pointer, its address and seed) in 64 bytes.
func TestLazyResolverBytes(t *testing.T) {
	if size := unsafe.Sizeof(LazyResolver{}); size > 64 {
		t.Errorf("LazyResolver is %d bytes, want at most 64", size)
	}
}

// TestEveryProfileIsUsed: every row of recursive's profile table is the
// behaviour of some population kind or some retries row; the table holds
// no behaviour that nothing runs.
func TestEveryProfileIsUsed(t *testing.T) {
	used := map[string]bool{}
	for _, row := range newRetryRows() {
		used[row.Profile] = true
	}
	tb := NewTestbed(TestbedConfig{Probes: 400, Seed: 3,
		Population: PopulationConfig{Harvest: recursive.HarvestFull, ServeStaleDirect: true}})
	for _, l := range tb.Pop.Resolvers {
		name := profileOf(*l.cfg)
		if name == "" {
			t.Fatalf("resolver %s runs no profile row: %+v", l.addr, *l.cfg)
		}
		used[name] = true
	}
	for _, name := range recursive.ProfileNames() {
		if !used[name] {
			t.Errorf("profile %q: no population kind and no retries row uses it", name)
		}
	}
}

// profileOf names the row cfg was built from: the one it equals once the
// fields a variant sets (upstreams, cache, serve-stale, prefetch, harvest,
// answer-from-referral) are set aside.
func profileOf(cfg recursive.Config) string {
	for _, name := range recursive.ProfileNames() {
		row, _ := recursive.Profile(name)
		c := cfg
		c.RootHints, c.Forwarders, c.Cache = row.RootHints, row.Forwarders, row.Cache
		c.ServeStale, c.Prefetch, c.Harvest = row.ServeStale, row.Prefetch, row.Harvest
		c.AnswerFromReferral = row.AnswerFromReferral
		if reflect.DeepEqual(c, row) {
			return name
		}
	}
	return ""
}

// TestAuthLogResolves: every logged query resolves through the testbed's
// tables to a resolver source, a cachetest.nl name and an authoritative,
// within the run.
func TestAuthLogResolves(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Probes: 50, Seed: 1, KeepAuthLog: true})
	tb.Fleet.Schedule(tb.Start, 20*time.Minute, 5*time.Minute, 2)
	tb.Clk.RunFor(time.Hour)
	n := int64(0)
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			n++
			if src := tb.AuthSrc(ev); src == "" || src == tb.AuthAddrs[0] {
				t.Fatalf("source %q", src)
			}
			if q := tb.AuthQName(ev); !dnswire.IsSubdomain(q, Domain) {
				t.Fatalf("query name %q", q)
			}
			if int(ev.Dst) >= len(tb.AuthAddrs) || ev.At < 0 || ev.At > time.Hour {
				t.Fatalf("event %+v", ev)
			}
		}
	}
	if n == 0 || n != tb.tapArrivals.Value() {
		t.Errorf("logged %d of %d arrivals", n, tb.tapArrivals.Value())
	}
}

func TestPopulationMix(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Probes: 400, Seed: 3})
	kinds := make(map[R1Kind]int)
	vps := 0
	for _, p := range tb.Pop.Probes {
		for _, rec := range p.Recursives {
			kinds[tb.Pop.KindOf(rec)]++
			vps++
		}
	}
	if vps < 500 || vps > 800 {
		t.Errorf("VPs = %d for 400 probes, want ~1.67x", vps)
	}
	if kinds[DirectHonest] == 0 || kinds[FarmGoogle] == 0 || kinds[MultiTier] == 0 {
		t.Errorf("kind mix = %v", kinds)
	}
	// Direct honest is the plurality kind (~half of VPs).
	if kinds[DirectHonest] < vps*4/10 {
		t.Errorf("direct honest = %d of %d", kinds[DirectHonest], vps)
	}
	if len(tb.Pop.GoogleRn) != 24 {
		t.Errorf("google backends = %d", len(tb.Pop.GoogleRn))
	}
	if !tb.Pop.IsGoogleRn(tb.Pop.GoogleRn[0]) || tb.Pop.IsGoogleRn("probe-1") {
		t.Error("IsGoogleRn misclassifies")
	}
}

// TestCachingBaseline runs a scaled §3 experiment with TTL 3600 and
// checks the paper's qualitative findings.
func TestCachingBaseline(t *testing.T) {
	res := mustRun(t, CachingScenario(), RunConfig{
		Probes: testProbes, TTL: 3600,
		ProbeInterval: 20 * time.Minute, Rounds: 6, Seed: testSeed,
	}).Caching
	t1 := res.Table1
	if t1.Queries == 0 || t1.AnswersValid == 0 {
		t.Fatalf("empty run: %+v", t1)
	}
	// Most probes answer; a few percent are discarded.
	discFrac := float64(t1.ProbesDisc) / float64(t1.Probes)
	if discFrac < 0.005 || discFrac > 0.15 {
		t.Errorf("probe discard fraction = %.3f, want a few percent", discFrac)
	}
	// The headline: ~30% warm-cache misses (paper: 28.5-32.9%; allow a
	// generous band at small scale).
	if res.MissRate < 0.15 || res.MissRate > 0.45 {
		t.Errorf("miss rate = %.3f, want ~0.3", res.MissRate)
	}
	// Caches mostly work: CC dominates CA.
	if res.Table2.CC == 0 || res.Table2.CA > res.Table2.CC {
		t.Errorf("CC=%d CA=%d", res.Table2.CC, res.Table2.CA)
	}
	// Roughly half the misses route via public resolvers (Table 3).
	if res.Table3.ACAnswers > 0 {
		pubShare := float64(res.Table3.PublicR1) / float64(res.Table3.ACAnswers)
		if pubShare < 0.2 || pubShare > 0.8 {
			t.Errorf("public share of misses = %.2f, want ~0.5", pubShare)
		}
	}
	// Rendering produces the paper-style rows.
	for _, render := range []string{
		RenderTable1([]*CachingResult{res}),
		RenderTable2([]*CachingResult{res}),
		RenderTable3([]*CachingResult{res}),
	} {
		if !strings.Contains(render, "3600") {
			t.Errorf("render missing TTL:\n%s", render)
		}
	}
}

// TestCachingShortTTLHasNoCacheHits reproduces the 60 s TTL column: with
// 20-minute probing every answer after warm-up should be fresh (AA).
func TestCachingShortTTLHasNoCacheHits(t *testing.T) {
	res := mustRun(t, CachingScenario(), RunConfig{
		Probes: testProbes, TTL: 60,
		ProbeInterval: 20 * time.Minute, Rounds: 4, Seed: testSeed,
	}).Caching
	total := res.Table2.AA + res.Table2.CC + res.Table2.AC + res.Table2.CA
	if total == 0 {
		t.Fatal("no classified answers")
	}
	aaShare := float64(res.Table2.AA) / float64(total)
	if aaShare < 0.9 {
		t.Errorf("AA share with 60s TTL = %.2f, want ~1.0 (paper: miss 0%%)", aaShare)
	}
}

// TestCachingDayLongTTLTruncation reproduces the 86400 s finding: ~30% of
// warm-up answers carry a shortened TTL.
func TestCachingDayLongTTLTruncation(t *testing.T) {
	res := mustRun(t, CachingScenario(), RunConfig{
		Probes: testProbes, TTL: 86400,
		ProbeInterval: 20 * time.Minute, Rounds: 4, Seed: testSeed,
	}).Caching
	warm := res.Table2.WarmupTTLZone + res.Table2.WarmupTTLAltered
	if warm == 0 {
		t.Fatal("no warmups")
	}
	truncated := float64(res.Table2.WarmupTTLAltered) / float64(warm)
	if truncated < 0.15 || truncated > 0.5 {
		t.Errorf("day-long truncation = %.2f, want ~0.3", truncated)
	}

	// And at one hour the truncation is rare (paper: ~2%).
	res2 := mustRun(t, CachingScenario(), RunConfig{
		Probes: testProbes, TTL: 3600,
		ProbeInterval: 20 * time.Minute, Rounds: 4, Seed: testSeed,
	}).Caching
	warm2 := res2.Table2.WarmupTTLZone + res2.Table2.WarmupTTLAltered
	trunc2 := float64(res2.Table2.WarmupTTLAltered) / float64(warm2)
	if trunc2 > 0.1 {
		t.Errorf("1-hour truncation = %.2f, want ~0.02", trunc2)
	}
}

// TestCacheFragmentationRaisesMissRate holds §3's explanation of warm
// cache misses: the same population misses more when each public farm
// spreads its clients over many independent backend caches than when one
// cache serves the whole farm.
func TestCacheFragmentationRaisesMissRate(t *testing.T) {
	missRate := func(google, other int) float64 {
		return mustRun(t, CachingScenario(), RunConfig{
			Probes: testProbes, TTL: 3600,
			ProbeInterval: 20 * time.Minute, Rounds: 5, Seed: testSeed,
			Population: PopulationConfig{GoogleBackends: google, OtherBackends: other},
		}).Caching.MissRate
	}
	if mono, frag := missRate(1, 1), missRate(32, 16); frag <= mono {
		t.Errorf("miss rate %.1f%% with 32/16-backend farms, %.1f%% with one backend each", 100*frag, 100*mono)
	}
}

// TestDDoSModerateLossMostlySurvives reproduces Experiment E: 50% loss on
// both authoritatives, nearly all clients still served.
func TestDDoSModerateLossMostlySurvives(t *testing.T) {
	spec, ok := SpecByName("E")
	if !ok {
		t.Fatal("spec E missing")
	}
	res := mustRun(t, DDoSScenario(spec), RunConfig{Probes: testProbes, Seed: testSeed}).DDoS
	// Rounds 6..11 are under attack.
	for round := 7; round <= 11; round++ {
		if fr := res.FailureRate(round); fr > 0.25 {
			t.Errorf("round %d failure rate %.2f under 50%% loss, want small", round, fr)
		}
	}
}

// TestDDoSCompleteFailureCacheProtection reproduces Experiment A's shape:
// partial protection while caches live, near-total failure after expiry.
func TestDDoSCompleteFailureCacheProtection(t *testing.T) {
	spec, ok := SpecByName("A")
	if !ok {
		t.Fatal("spec A missing")
	}
	res := mustRun(t, DDoSScenario(spec), RunConfig{Probes: testProbes, Seed: testSeed}).DDoS
	// Cache-only phase (rounds 2-5): some failures but far from all.
	early := res.FailureRate(2)
	if early < 0.1 || early > 0.8 {
		t.Errorf("early failure rate = %.2f, want partial protection", early)
	}
	// After TTL expiry (round 8+): nearly everything fails.
	late := res.FailureRate(9)
	if late < 0.85 {
		t.Errorf("post-expiry failure rate = %.2f, want ~1.0", late)
	}
	if late <= early {
		t.Errorf("failure should grow after cache expiry: %.2f -> %.2f", early, late)
	}
}

// TestDDoS90PercentLossRetriesAmplifyTraffic reproduces the §6 finding:
// legitimate traffic at the authoritatives grows several-fold under 90%
// loss.
func TestDDoS90PercentLossRetriesAmplifyTraffic(t *testing.T) {
	spec, ok := SpecByName("I") // TTL 60: no cache shielding
	if !ok {
		t.Fatal("spec I missing")
	}
	res := mustRun(t, DDoSScenario(spec), RunConfig{Probes: testProbes, Seed: testSeed, Population: PopulationConfig{Harvest: recursive.HarvestFull}}).DDoS
	baseline := float64(res.AuthQueries.Get(4, labelPID) + res.AuthQueries.Get(4, labelOther))
	attack := float64(res.AuthQueries.Get(9, labelPID) + res.AuthQueries.Get(9, labelOther))
	if baseline == 0 {
		t.Fatal("no baseline authoritative traffic")
	}
	mult := attack / baseline
	if mult < 2 {
		t.Errorf("attack traffic multiplier = %.1f, want >= 2 (paper: up to 8x)", mult)
	}
	// More than half of VPs still answered during the attack with
	// caching disabled? Paper: ~37-40% get answers in experiment I. Allow
	// a broad band.
	fr := res.FailureRate(9)
	if fr < 0.2 || fr > 0.9 {
		t.Errorf("failure rate at 90%% loss TTL60 = %.2f, want substantial but not total", fr)
	}
	// Amplification also shows as more distinct Rn per probe (Figure 11).
	if len(res.RnPerProbe) > 9 {
		if res.RnPerProbe[9].Median < res.RnPerProbe[4].Median {
			t.Errorf("Rn per probe should not shrink under attack: %.1f -> %.1f",
				res.RnPerProbe[4].Median, res.RnPerProbe[9].Median)
		}
	}
}

// TestDDoSLatencyGrowsUnderAttack checks the Figure 9 shape: tail latency
// rises during the attack while the median stays moderate with caching.
func TestDDoSLatencyGrowsUnderAttack(t *testing.T) {
	spec, ok := SpecByName("H")
	if !ok {
		t.Fatal("spec H missing")
	}
	res := mustRun(t, DDoSScenario(spec), RunConfig{Probes: testProbes, Seed: testSeed}).DDoS
	pre := res.Latency[4]
	mid := res.Latency[9]
	if mid.P90 <= pre.P90 {
		t.Errorf("p90 latency did not grow: %.0f -> %.0f ms", pre.P90, mid.P90)
	}
	if s := RenderLatency(res); !strings.Contains(s, "median") {
		t.Error("latency render broken")
	}
}

// TestClassesSeriesHasCacheHitsDuringAttack checks the Figure 7 shape for
// Experiment B: CC answers persist into the attack window.
func TestClassesSeriesHasCacheHitsDuringAttack(t *testing.T) {
	spec, ok := SpecByName("B")
	if !ok {
		t.Fatal("spec B missing")
	}
	res := mustRun(t, DDoSScenario(spec), RunConfig{Probes: testProbes, Seed: testSeed}).DDoS
	ccDuring := res.Classes.Get(6, int(classify.CC)) + res.Classes.Get(7, int(classify.CC))
	if ccDuring == 0 {
		t.Error("no cache hits during the attack (Figure 7 shape lost)")
	}
	if s := RenderTable4([]*DDoSResult{res}); !strings.Contains(s, "B") {
		t.Error("table 4 render broken")
	}
}

// TestGlueVsAuthPrefersChildTTL reproduces Appendix A: the large majority
// of answers carry the child's (authoritative) TTL.
func TestGlueVsAuthPrefersChildTTL(t *testing.T) {
	res := mustRun(t, GlueScenario(), RunConfig{Probes: 100, Seed: testSeed}).Glue
	if res.NS.Total == 0 || res.A.Total == 0 {
		t.Fatalf("no answers: %+v", res)
	}
	if share := res.NS.AuthoritativeShare(); share < 0.75 {
		t.Errorf("NS child share = %.2f, want ~0.95", share)
	}
	if share := res.A.AuthoritativeShare(); share < 0.75 {
		t.Errorf("A child share = %.2f, want ~0.95", share)
	}
	if s := RenderTable5(res); !strings.Contains(s, "TTL=60") {
		t.Error("table 5 render broken")
	}
}

// TestNewTestbedProbeLimit pins the uint16 probe-ID guard: one probe past
// MaxShardProbes must panic naming the limit instead of wrapping IDs, and
// the limit itself must build.
func TestNewTestbedProbeLimit(t *testing.T) {
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "MaxShardProbes (65535)") {
				t.Errorf("NewTestbed(65536 probes) panic = %q, want one naming MaxShardProbes", msg)
			}
		}()
		NewTestbed(TestbedConfig{Probes: MaxShardProbes + 1, Seed: 1})
	}()
	tb := NewTestbed(TestbedConfig{Probes: MaxShardProbes, Seed: 1})
	if got := len(tb.Pop.Probes); got != MaxShardProbes {
		t.Errorf("built %d probes, want %d", got, MaxShardProbes)
	}
	if last := tb.Pop.Probes[MaxShardProbes-1].ID; last != MaxShardProbes {
		t.Errorf("last probe ID = %d, want %d", last, MaxShardProbes)
	}
}
