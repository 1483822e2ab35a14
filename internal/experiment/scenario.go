package experiment

// The Scenario API: one config shape and one entry point for every
// experiment in the repository. A Scenario names an experiment (a DDoS
// spec, the caching baseline, the glue study, the self-check); RunConfig
// carries the knobs every experiment shares; Run executes it with
// cancellation support. Population-scale scenarios split the probes into
// fixed-capacity cells that run concurrently through runCells (shard.go)
// and stream into the mergeable accumulators of stream.go.
//
// Determinism contract: the set of cells, their sizes, and their seeds
// depend only on (Probes, ShardProbes, Seed) — the Shards knob is pure
// concurrency. Combined with the order-independent accumulator merge, a
// run with Shards=K is byte-identical to the same run with Shards=1.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/recursive"
	"repro/internal/retrymodel"
	"repro/internal/telemetry"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// ErrCancelled is returned (wrapped) when a run's context fires before
// every cell completes. The partial Outcome still carries the merged
// results and metrics of the cells that finished.
var ErrCancelled = errors.New("experiment run cancelled")

// RunConfig is the one config shape every Scenario accepts.
type RunConfig struct {
	// Probes is the total emulated probe population (default 1200). The
	// VP count is larger: each probe queries through 1–3 recursives.
	Probes int
	// Seed drives every random choice; same seed, same results.
	Seed int64
	// Shards is the number of population cells running concurrently
	// (<= 0 means 1). Results are identical for every value: the cell
	// layout depends only on Probes, ShardProbes, and Seed.
	Shards int
	// ShardProbes is the probe capacity of one cell (default 4096,
	// max 65535).
	ShardProbes int
	// Workers bounds the run-level fan-out of CheckScenario; <= 0 means
	// one per core.
	Workers int
	// Population tunes the resolver mix; zero value uses the calibrated
	// defaults.
	Population PopulationConfig
	// TTL, ProbeInterval, and Rounds configure the caching scenario
	// (defaults 3600 s, 20 min, 7). DDoS scenarios take these from
	// their spec instead.
	TTL           uint32
	ProbeInterval time.Duration
	Rounds        int
	// KeepWorlds retains every cell's testbed in Outcome.Worlds for
	// drill-downs (Table 7). Costs memory proportional to the whole
	// population — leave off for scale runs.
	KeepWorlds bool
	// Trace enables deterministic query-lifecycle tracing: every cell
	// records into its own ring buffer and Outcome.Trace carries the
	// per-cell traces in cell-index order, so trace bytes are identical
	// for every Shards/Workers value. Honoured by every scenario on the
	// cell engine (ddos, caching, glue, nxns, poison, reflect, transport);
	// the others build no cells and leave Outcome.Trace nil.
	Trace *trace.Config
	// Timeline enables per-bucket simulated-time series collection: each
	// cell counts into a fixed bin layout derived from the spec horizon,
	// and the cells exact-merge, so Outcome.Timeline is byte-identical
	// for every Shards/Workers value. DDoS scenarios only.
	Timeline *timeline.Config
	// Progress, when non-nil, receives one CellDone per finished cell
	// (live run telemetry). Display only — it never affects results.
	Progress *telemetry.Progress

	// afterShard, when set, runs after each cell completes (on the
	// worker that ran it). Tests use it to trigger deterministic
	// mid-run cancellation.
	afterShard func(cell int)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Probes == 0 {
		c.Probes = 1200
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ShardProbes <= 0 {
		c.ShardProbes = DefaultShardProbes
	}
	if c.ShardProbes > MaxShardProbes {
		c.ShardProbes = MaxShardProbes
	}
	return c
}

// cachingConfig projects the RunConfig onto the caching run's own knobs.
func (c RunConfig) cachingConfig() CachingConfig {
	return CachingConfig{
		Probes: c.Probes, TTL: c.TTL, ProbeInterval: c.ProbeInterval,
		Rounds: c.Rounds, Seed: c.Seed, Population: c.Population,
	}.withDefaults()
}

// Outcome is what any Scenario produces. Exactly one of the result
// fields matching the scenario kind is set (Check sets Check; the DDoS
// scenarios set DDoS; ...). Report is the scenario's primary run report
// when it has one.
type Outcome struct {
	Scenario string
	Config   RunConfig

	DDoS         *DDoSResult
	Caching      *CachingResult
	Glue         *GlueResult
	Check        []CheckResult
	NXNS         *NXNSResult
	Poison       *PoisonResult
	Reflect      *ReflectResult
	Transport    *TransportResult
	Passive      *PassiveResult
	Retries      *RetriesResult
	Implications *ImplicationsResult

	// Worlds holds the per-cell testbeds when Config.KeepWorlds was set
	// and the run completed (nil on cancelled runs).
	Worlds *ShardedTestbed

	// Trace holds the run's merged per-cell traces when Config.Trace was
	// set (empty for scenarios that do not trace).
	Trace *trace.Data

	// Timeline holds the run's merged per-bucket series when
	// Config.Timeline was set (DDoS scenarios only). Identical bytes for
	// every shard count.
	Timeline *timeline.Timeline

	Report *metrics.Report
}

// Scenario is one runnable experiment. Implementations live in this
// package; construct them with DDoSScenario, CachingScenario,
// GlueScenario, or CheckScenario and execute them with Run.
type Scenario interface {
	Name() string
	run(ctx context.Context, cfg RunConfig) (*Outcome, error)
}

// Run executes a scenario under ctx. On cancellation it returns a
// partial Outcome (results merged from the cells that finished) and an
// error satisfying errors.Is(err, ErrCancelled); runs cancel at cell
// granularity.
func Run(ctx context.Context, sc Scenario, cfg RunConfig) (*Outcome, error) {
	return sc.run(ctx, cfg.withDefaults())
}

func cancelErr(cause error) error {
	return fmt.Errorf("%w: %v", ErrCancelled, cause)
}

// ---- DDoS ----

type ddosScenario struct{ spec DDoSSpec }

// DDoSScenario wraps one Table 4 attack spec as a Scenario.
func DDoSScenario(spec DDoSSpec) Scenario { return ddosScenario{spec: spec} }

func (s ddosScenario) Name() string { return "ddos-" + s.spec.Name }

// Spec exposes the wrapped attack spec, so the spec compiler's lowering
// (phase plans, display envelope) is inspectable in golden tests.
func (s ddosScenario) Spec() DDoSSpec { return s.spec }

func (s ddosScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	spec := s.spec
	if spec.ProbeInterval <= 0 || spec.TotalDur <= 0 {
		return &Outcome{Scenario: s.Name(), Config: cfg},
			fmt.Errorf("ddos spec %q: ProbeInterval and TotalDur must be positive", spec.Name)
	}
	rounds := int(spec.TotalDur / spec.ProbeInterval)
	total := newDDoSAccum(spec, testbedStart, rounds)
	return runCells(ctx, s.Name(), cfg, cellRun[*ddosAccum]{
		cell: func(base TestbedConfig) (*ddosAccum, *Testbed) {
			base.Population = cfg.Population
			tb := runDDoSTestbed(spec, base, cfg.Timeline)
			ac := newDDoSAccum(spec, tb.Start, rounds)
			ac.absorb(tb)
			return ac, tb
		},
		fold: total.merge,
		report: func(out *Outcome, snap metrics.Snapshot) *metrics.Report {
			res := total.finalize()
			res.Report = &metrics.Report{
				Name: s.Name(),
				Labels: map[string]string{
					"experiment": spec.Name,
					"probes":     strconv.Itoa(cfg.Probes),
					"ttl":        strconv.FormatUint(uint64(spec.TTL), 10),
					"loss":       strconv.FormatFloat(spec.Loss, 'g', -1, 64),
					"seed":       strconv.FormatInt(cfg.Seed, 10),
				},
				Metrics:    snap,
				Invariants: DDoSInvariants(res, snap),
			}
			out.DDoS, out.Timeline = res, res.Timeline
			return res.Report
		},
	})
}

// ---- Caching ----

type cachingScenario struct{}

// CachingScenario is the §3 caching baseline as a Scenario; TTL,
// ProbeInterval, and Rounds come from the RunConfig.
func CachingScenario() Scenario { return cachingScenario{} }

func (cachingScenario) Name() string { return "caching" }

func (cachingScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	cc := cfg.cachingConfig()
	total := newCachingAccum(cc, testbedStart)
	return runCells(ctx, "caching", cfg, cellRun[*cachingAccum]{
		cell: func(base TestbedConfig) (*cachingAccum, *Testbed) {
			base.Population = cc.Population
			tb := runCachingWorld(cc, base)
			ac := newCachingAccum(cc, testbedStart)
			ac.absorb(tb)
			return ac, tb
		},
		fold: total.merge,
		report: func(out *Outcome, snap metrics.Snapshot) *metrics.Report {
			res := total.finalize()
			res.Report = &metrics.Report{
				Name: fmt.Sprintf("caching-ttl%d", cc.TTL),
				Labels: map[string]string{
					"probes": strconv.Itoa(cfg.Probes),
					"ttl":    strconv.FormatUint(uint64(cc.TTL), 10),
					"rounds": strconv.Itoa(cc.Rounds),
					"seed":   strconv.FormatInt(cfg.Seed, 10),
				},
				Metrics:    snap,
				Invariants: cachingInvariants(res, snap),
			}
			out.Caching = res
			return res.Report
		},
	})
}

// ---- Glue vs authoritative ----

type glueScenario struct{}

// GlueScenario is the Appendix A glue-vs-authoritative TTL study as a
// Scenario.
func GlueScenario() Scenario { return glueScenario{} }

func (glueScenario) Name() string { return "glue" }

func (glueScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	var total glueAccum
	return runCells(ctx, "glue", cfg, cellRun[*GlueResult]{
		cell: func(base TestbedConfig) (*GlueResult, *Testbed) {
			base.Population = cfg.Population
			return runGlueTestbed(base)
		},
		fold: total.absorb,
		report: func(out *Outcome, snap metrics.Snapshot) *metrics.Report {
			res := total.finalize()
			res.Report = &metrics.Report{
				Name: "glue",
				Labels: map[string]string{
					"probes": strconv.Itoa(cfg.Probes),
					"seed":   strconv.FormatInt(cfg.Seed, 10),
				},
				Metrics:    snap,
				Invariants: glueInvariants(snap),
			}
			out.Glue = res
			return res.Report
		},
	})
}

// ---- Check ----

type checkScenario struct{}

// CheckScenario is the one-shot reproduction self-test as a Scenario.
// Sub-experiments inherit the config's Shards/ShardProbes.
func CheckScenario() Scenario { return checkScenario{} }

func (checkScenario) Name() string { return "check" }

func (checkScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	out := &Outcome{Scenario: "check", Config: cfg}
	probes, seed := cfg.Probes, cfg.Seed

	specE, okE := SpecByName("E")
	specH, okH := SpecByName("H")
	specI, okI := SpecByName("I")
	specA, okA := SpecByName("A")

	// sub derives a sub-experiment's RunConfig: same cell layout,
	// scenario-specific probe count and caching knobs.
	sub := func(p int, ttl uint32, rounds int, pop PopulationConfig) RunConfig {
		return RunConfig{
			Probes: p, Seed: seed, Shards: cfg.Shards, ShardProbes: cfg.ShardProbes,
			Population: pop, TTL: ttl, ProbeInterval: 20 * time.Minute, Rounds: rounds,
		}
	}
	ddosRun := func(spec DDoSSpec, pop PopulationConfig, dst **DDoSResult) func() {
		return func() {
			o, err := Run(ctx, DDoSScenario(spec), sub(probes, 0, 0, pop))
			if err == nil {
				*dst = o.DDoS
			}
		}
	}

	var (
		caching, short, day *CachingResult
		resE, resH, resI    *DDoSResult
		resA, resIHarvest   *DDoSResult
		bindUp, bindDown    retrymodel.Result
		glue                *GlueResult
		impl                *ImplicationsResult
	)
	cachingRun := func(ttl uint32, rounds int, dst **CachingResult) func() {
		return func() {
			o, err := Run(ctx, CachingScenario(), sub(probes, ttl, rounds, PopulationConfig{}))
			if err == nil {
				*dst = o.Caching
			}
		}
	}
	runs := []func(){
		cachingRun(3600, 6, &caching),
		cachingRun(60, 4, &short),
		cachingRun(86400, 4, &day),
		func() {
			bindUp = retrymodel.Run(retrymodel.BINDLike(), false, 25, seed)
			bindDown = retrymodel.Run(retrymodel.BINDLike(), true, 25, seed)
		},
		func() {
			o, err := Run(ctx, GlueScenario(), sub(probes/2, 0, 0, PopulationConfig{}))
			if err == nil {
				glue = o.Glue
			}
		},
		func() {
			impl = RunImplications(ImplicationsConfig{Clients: probes / 4, Recursives: 20, Seed: seed})
		},
	}
	if okE {
		runs = append(runs, ddosRun(specE, PopulationConfig{}, &resE))
	}
	if okH {
		runs = append(runs, ddosRun(specH, PopulationConfig{}, &resH))
	}
	if okI {
		runs = append(runs, ddosRun(specI, PopulationConfig{}, &resI))
		runs = append(runs, ddosRun(specI, PopulationConfig{Harvest: recursive.HarvestFull}, &resIHarvest))
	}
	if okA {
		runs = append(runs, ddosRun(specA, PopulationConfig{}, &resA))
	}
	if err := parallel.ForEachCtx(ctx, cfg.Workers, len(runs), func(i int) { runs[i]() }); err != nil {
		// Verdicts need every sub-result; a cancelled suite has none to
		// assemble.
		return out, cancelErr(err)
	}

	var res []CheckResult
	add := func(claim, paper, measured string, pass bool) {
		res = append(res, CheckResult{Claim: claim, Paper: paper, Measured: measured, Pass: pass})
	}

	// §3: warm-cache miss rate ~30%.
	add("warm-cache miss rate (TTL 3600)", "28.5-32.9%",
		fmt.Sprintf("%.1f%%", 100*caching.MissRate),
		caching.MissRate > 0.18 && caching.MissRate < 0.42)

	// §3: short TTLs never hit the cache at 20-minute probing.
	total := short.Table2.AA + short.Table2.CC + short.Table2.AC + short.Table2.CA
	aaShare := 0.0
	if total > 0 {
		aaShare = float64(short.Table2.AA) / float64(total)
	}
	add("TTL 60 @ 20min probing: all fresh (AA)", "~100%",
		fmt.Sprintf("%.1f%%", 100*aaShare), aaShare > 0.9)

	// §3.4: day-long TTLs are truncated for ~30% of VPs.
	warm := day.Table2.WarmupTTLZone + day.Table2.WarmupTTLAltered
	trunc := 0.0
	if warm > 0 {
		trunc = float64(day.Table2.WarmupTTLAltered) / float64(warm)
	}
	add("TTL truncation at 1-day TTLs", "~30%",
		fmt.Sprintf("%.1f%%", 100*trunc), trunc > 0.15 && trunc < 0.5)

	// §5: Experiment E — 50% loss barely hurts.
	if okE {
		delta := resE.FailureRate(9) - resE.FailureRate(4)
		add("exp E (50% loss): failure increase small", "+3.7pp",
			fmt.Sprintf("+%.1fpp", 100*delta), delta >= 0 && delta < 0.15)
	}

	// §5: Experiment H — ~60% still served at 90% loss with 30-min TTLs.
	if okH {
		served := 1 - resH.FailureRate(9)
		add("exp H (90% loss, TTL 1800): still served", "~60%",
			fmt.Sprintf("%.1f%%", 100*served), served > 0.45 && served < 0.85)

		// And the cache's value: exp I (TTL 60) fares clearly worse.
		if okI {
			servedI := 1 - resI.FailureRate(9)
			add("exp I (90% loss, TTL 60): served less than H", "~37-40%",
				fmt.Sprintf("%.1f%%", 100*servedI),
				servedI > 0.2 && servedI < 0.6 && servedI < served)
		}
	}

	// §5.2: Experiment A — near-total failure after caches expire.
	if okA {
		late := resA.FailureRate(9)
		early := resA.FailureRate(3)
		add("exp A: cache cliff at TTL expiry", "partial, then ~100% fail",
			fmt.Sprintf("%.0f%% -> %.0f%%", 100*early, 100*late),
			early < 0.6 && late > 0.85)
	}

	// §6: traffic amplification at the authoritatives under 90% loss.
	if okI {
		base := resIHarvest.AuthQueries.Get(4, "AAAA-for-PID")
		attack := resIHarvest.AuthQueries.Get(9, "AAAA-for-PID")
		mult := 0.0
		if base > 0 {
			mult = attack / base
		}
		add("legit traffic multiplier under 90% loss", "up to 8.2x",
			fmt.Sprintf("%.1fx", mult), mult > 2 && mult < 15)
	}

	// §6.2: software retry amplification.
	bmult := bindDown.Mean.Total() / bindUp.Mean.Total()
	add("BIND-like retries during failure", "3 -> 12 queries (4x)",
		fmt.Sprintf("%.0f -> %.0f (%.1fx)", bindUp.Mean.Total(), bindDown.Mean.Total(), bmult),
		bindUp.Mean.Total() <= 4 && bmult > 2 && bmult < 8)

	// Appendix A: the child's TTL wins.
	add("answers carry the child-side TTL", "~95%",
		fmt.Sprintf("%.1f%%", 100*glue.NS.AuthoritativeShare()),
		glue.NS.AuthoritativeShare() > 0.85)

	// §8: root-like rides it out, CDN-like suffers.
	add("root-like vs CDN-like failure under attack", "≈0% vs visible",
		fmt.Sprintf("%.1f%% vs %.1f%%", 100*impl.RootFailDuringAttack, 100*impl.CDNFailDuringAttack),
		impl.RootFailDuringAttack < 0.05 && impl.CDNFailDuringAttack > 0.05)

	out.Check = res
	return out, nil
}

// glueInvariants checks the glue run's tap conservation laws: no loss
// window is armed, so every arrival must be delivered and handled.
func glueInvariants(snap metrics.Snapshot) []metrics.Invariant {
	ts := snap.Scope("testbed")
	auth := snap.Scope("authoritative")
	return []metrics.Invariant{
		metrics.EqualInt("auth_arrivals_conserved",
			ts.Counter("auth_arrivals"),
			ts.Counter("auth_dropped")+ts.Counter("auth_delivered"),
			"arrivals", "dropped+delivered"),
		metrics.EqualInt("no_attack_no_drops",
			ts.Counter("auth_dropped"), 0, "dropped", "zero"),
		metrics.EqualInt("auth_delivered_match_handled",
			ts.Counter("auth_delivered"), auth.Counter("queries"),
			"delivered", "handled"),
	}
}
