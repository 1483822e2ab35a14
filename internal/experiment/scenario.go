package experiment

// The Scenario API: one config shape and one entry point for every
// experiment in the repository. A Scenario names an experiment (a DDoS
// spec, the caching baseline, the glue study, ...); RunConfig
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
	// Population tunes the resolver mix; zero value uses the calibrated
	// defaults.
	Population PopulationConfig
	// TTL, ProbeInterval, and Rounds configure the caching scenario
	// (defaults 3600 s, 20 min, 7). DDoS scenarios take these from
	// their spec instead.
	TTL           uint32
	ProbeInterval time.Duration
	Rounds        int
	// Trace enables deterministic query-lifecycle tracing: every cell
	// records into its own ring buffer and Outcome.Trace carries the
	// per-cell traces in cell-index order, so trace bytes are identical
	// for every Shards/Workers value. Honoured by every scenario (ddos,
	// caching, glue, nxns, poison, reflect, transport, passive, retries,
	// implications).
	Trace *trace.Config
	// Timeline enables per-bucket simulated-time series collection: each
	// cell counts into a fixed bin layout derived from the family's
	// horizon, and the cells exact-merge, so Outcome.Timeline is
	// byte-identical for every Shards/Workers value. Honoured by the
	// families with a horizon (ddos, caching, implications).
	Timeline *timeline.Config
	// Progress, when non-nil, receives one CellDone per finished cell
	// (live run telemetry). Display only — it never affects results.
	Progress *telemetry.Progress

	// afterShard, when set, runs after each cell completes (on the
	// worker that ran it) with the cell's finished testbed. Tests use it
	// to trigger deterministic mid-run cancellation and to inspect cells
	// a run does not keep.
	afterShard func(cell int, tb *Testbed)
	// onTestbed, when set, runs on each cell's testbed as soon as it is
	// built, before anything is simulated (on the worker that runs the
	// cell). Tests use it to tap every packet of a run.
	onTestbed func(tb *Testbed)
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
// fields matching the scenario kind is set (the DDoS scenarios set DDoS;
// the caching scenario sets Caching; ...). Report is the run report of a
// scenario on the cell engine.
type Outcome struct {
	DDoS         *DDoSResult
	Caching      *CachingResult
	Glue         *GlueResult
	NXNS         *NXNSResult
	Poison       *PoisonResult
	Reflect      *ReflectResult
	Transport    *TransportResult
	Passive      *PassiveResult
	Retries      *RetriesResult
	Implications *ImplicationsResult

	// Trace holds the run's merged per-cell traces when RunConfig.Trace was
	// set.
	Trace *trace.Data

	// Timeline holds the run's merged per-bucket series when
	// RunConfig.Timeline was set and the family has a horizon (ddos,
	// caching, implications). Identical bytes for every shard count.
	Timeline *timeline.Timeline

	Report *metrics.Report
}

// Scenario is one runnable experiment. Implementations live in this
// package; construct them with DDoSScenario, CachingScenario,
// GlueScenario, ... and execute them with Run.
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
		return &Outcome{}, fmt.Errorf("ddos spec %q: ProbeInterval and TotalDur must be positive", spec.Name)
	}
	rounds := int(spec.TotalDur / spec.ProbeInterval)
	total := newDDoSAccum(spec, testbedStart, rounds)
	return runCells(ctx, s.Name(), cfg, cellRun[*ddosAccum]{
		horizon: spec.horizon(),
		cell: func(base TestbedConfig) (*ddosAccum, *Testbed) {
			ac := newDDoSAccum(spec, testbedStart, rounds)
			base.Population, base.fold = cfg.Population, ac.foldAuth
			base.KeepAuthLog = spec.Name == drillExperiment
			tb := runDDoSTestbed(spec, base)
			ac.absorb(tb)
			if base.KeepAuthLog {
				ac.drillDown(tb)
			}
			return ac, tb
		},
		fold: total.merge,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			res := total.finalize()
			out.DDoS = res
			if out.Timeline != nil {
				out.Timeline.Marks = specMarks(spec)
			}
			return map[string]string{
				"experiment": spec.Name,
				"ttl":        strconv.FormatUint(uint64(spec.TTL), 10),
				"loss":       strconv.FormatFloat(spec.Loss, 'g', -1, 64),
			}, DDoSInvariants(res, snap)
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
	return runCells(ctx, fmt.Sprintf("caching-ttl%d", cc.TTL), cfg, cellRun[*cachingAccum]{
		horizon: cc.horizon(),
		cell: func(base TestbedConfig) (*cachingAccum, *Testbed) {
			ac := newCachingAccum(cc, testbedStart)
			base.Population, base.fold = cc.Population, ac.foldAuth
			tb := runCachingWorld(cc, base)
			ac.absorb(tb)
			return ac, tb
		},
		fold: total.merge,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Caching = total.finalize()
			return map[string]string{
				"ttl":    strconv.FormatUint(uint64(cc.TTL), 10),
				"rounds": strconv.Itoa(cc.Rounds),
			}, cachingInvariants(out.Caching, snap)
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
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Glue = total.finalize()
			return nil, tapInvariants(snap, false)
		},
	})
}
