// Package dikes is a controlled-experiment testbed for studying DNS
// resilience under DDoS, reproducing Moura et al., "When the Dike Breaks:
// Dissecting DNS Defenses During DDoS" (ACM IMC 2018 / ISI-TR-725).
//
// The library contains a complete, from-scratch DNS ecosystem:
//
//   - a wire-format codec (RFC 1034/1035 with name compression),
//   - a zone store with master-file parsing and full lookup semantics,
//   - an authoritative server engine,
//   - a caching recursive resolver engine with retries, negative caching,
//     credibility ranking, serve-stale, TTL rewriting, fragmented caches,
//     and multi-level forwarding,
//   - a stub resolver,
//   - a deterministic discrete-event network simulator with programmable
//     inbound loss (the DDoS emulation dial),
//   - an Atlas-like vantage-point fleet and the paper's AA/CC/AC/CA answer
//     classifier,
//   - a Scenario for every table and figure in the paper.
//
// There are two ways to run anything: Run executes one Scenario,
// RunCampaign executes many. The §3 caching baseline:
//
//	out, err := dikes.Run(ctx, dikes.CachingScenario(),
//		dikes.RunConfig{Probes: 1000, TTL: 3600})
//	fmt.Printf("warm-cache miss rate: %.1f%%\n", 100*out.Caching.MissRate)
//
// or an emulated attack:
//
//	spec, _ := dikes.SpecByName("H") // 90% loss, TTL 1800
//	out, err := dikes.Run(ctx, dikes.DDoSScenario(spec),
//		dikes.RunConfig{Probes: 1000, Seed: 42})
//	fmt.Printf("failure rate under attack: %.0f%%\n", 100*out.DDoS.FailureRate(9))
//
// The dikes command runs nothing but campaigns of scenario specs: its
// subcommands are aliases for the files in Specs (`dikes ddos` ≡ `dikes
// campaign examples/specs/paper/03-ddos.json`), and explicitly set flags
// override the specs; see cmd/dikes.
//
// This facade re-exports what cmd/, examples/ and the root tests use;
// for custom topologies the engine constructors (NewResolver,
// NewAuthoritative, NewStub, NewNetwork, NewVirtualClock) are exported
// below; see the examples/ directory.
package dikes

import (
	"embed"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/ddos"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/spec"
	"repro/internal/stub"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/zone"
)

// Wire protocol (package dnswire).
type (
	// Message is a DNS message.
	Message = dnswire.Message
	// RR is a resource record.
	RR = dnswire.RR
	// Type is a record type.
	Type = dnswire.Type
)

// Commonly used record types and response codes.
const (
	TypeA    = dnswire.TypeA
	TypeAAAA = dnswire.TypeAAAA
	TypeNS   = dnswire.TypeNS

	RCodeNoError = dnswire.RCodeNoError
)

// Wire helpers.
var (
	// NewQuery builds a recursive query message.
	NewQuery = dnswire.NewQuery
	// Unpack parses a wire-format message.
	Unpack = dnswire.Unpack
	// CanonicalName canonicalizes a domain name (lower case, trailing
	// dot).
	CanonicalName = dnswire.CanonicalName
)

// Simulation substrate.
type (
	// Addr identifies a simulated host.
	Addr = netsim.Addr
	// Attack is a scheduled DDoS (inbound loss window).
	Attack = ddos.Attack
)

// Substrate constructors.
var (
	// NewVirtualClock creates a virtual clock starting at a given time.
	NewVirtualClock = clock.NewVirtual
	// NewNetwork creates a simulated network on a clock with a seed.
	NewNetwork = netsim.New
	// ScheduleAttack arms a DDoS on a network.
	ScheduleAttack = ddos.Schedule
)

// Zone stores one DNS zone.
type Zone = zone.Zone

// ParseZoneString reads a zone in RFC 1035 master-file format.
var ParseZoneString = zone.ParseString

// Server and resolver engines.
type (
	// Resolver is the caching recursive resolver engine.
	Resolver = recursive.Resolver
	// ResolverConfig tunes a Resolver.
	ResolverConfig = recursive.Config
	// ServerHint names a root or forwarder server.
	ServerHint = recursive.ServerHint
	// ResolveResult is the outcome of a Resolver.Resolve call.
	ResolveResult = recursive.Result
	// CacheConfig tunes the resolver cache.
	CacheConfig = cache.Config
	// StubConfig tunes a Stub.
	StubConfig = stub.Config
	// StubResult is a stub query outcome.
	StubResult = stub.Result
)

// HarvestFull makes iterative resolvers harvest NS records in the
// background (the Unbound-like population of Figure 10); HarvestNone is
// the default.
const (
	HarvestNone = recursive.HarvestNone
	HarvestFull = recursive.HarvestFull
)

// DNSSEC helpers (Ed25519, RFC 8080).
var (
	// GenerateKey creates an Ed25519 zone key.
	GenerateKey = dnssec.GenerateKey
	// SignZone signs every authoritative RRset in a zone.
	SignZone = dnssec.SignZone
	// VerifyRRSet checks an RRSIG over an RRset.
	VerifyRRSet = dnssec.Verify
)

// FlagZone is the DNSKEY zone-key flag.
const FlagZone = dnssec.FlagZone

// Engine constructors.
var (
	// NewAuthoritative creates an authoritative server for zones.
	NewAuthoritative = authoritative.New
	// NewResolver creates a recursive resolver.
	NewResolver = recursive.NewResolver
	// NewStub creates a stub resolver client.
	NewStub = stub.New
)

// Scenario API — the unified, cancellable entry point for every
// experiment family (DESIGN.md §12). Construct a Scenario, describe the
// run with a RunConfig, and execute it with Run:
//
//	spec, _ := dikes.SpecByName("H")
//	out, err := dikes.Run(ctx, dikes.DDoSScenario(spec), dikes.RunConfig{
//		Probes: 1_000_000, Seed: 42, Shards: 8,
//	})
//
// The population is split into fixed-size cells (RunConfig.ShardProbes,
// default 4096) that merge into bounded-memory accumulators; Shards is
// how many cells run at once, and results are byte-identical for every
// value.
type (
	// RunConfig describes one scenario execution (scale, seed, sharding,
	// cancellation-relevant fan-out width).
	RunConfig = experiment.RunConfig
	// Outcome bundles whichever results the scenario produced plus the
	// merged run report.
	Outcome = experiment.Outcome
)

// Scenario constructors and the runner.
var (
	// Run executes a scenario; it returns ErrCancelled-wrapped errors
	// (with partial results) when ctx fires mid-run.
	Run = experiment.Run
	// DDoSScenario is a Table 4 attack emulation as a Scenario.
	DDoSScenario = experiment.DDoSScenario
	// CachingScenario is a §3 caching baseline as a Scenario.
	CachingScenario = experiment.CachingScenario
	// GlueScenario is the Appendix A TTL-trust experiment as a Scenario.
	GlueScenario = experiment.GlueScenario
)

// ErrCancelled is returned (wrapped) by Run and RunCampaign when the
// context fires; partial results accompany it where possible.
var ErrCancelled = experiment.ErrCancelled

// DefaultShardProbes is the cell size used when RunConfig.ShardProbes is
// left zero.
const DefaultShardProbes = experiment.DefaultShardProbes

// Declarative spec + campaign layer: JSON scenario specs (internal/spec)
// compile onto the Scenario API and run as one campaign with a
// consolidated cross-scenario report. Every simulation the dikes command
// runs is such a campaign: `dikes campaign` takes spec files, and the
// other subcommands are aliases for files in Specs.

// Specs holds the committed scenario specs, examples/specs/: the
// campaigns that regenerate every paper_run*.txt.
//
//go:embed examples/specs
var Specs embed.FS

type (
	// CampaignItem is one compiled run of a campaign.
	CampaignItem = experiment.CampaignItem
	// CampaignResult pairs an item with its Outcome or error.
	CampaignResult = experiment.CampaignResult
)

// Spec loading and the campaign runner.
var (
	// ParseSpec strict-parses and validates one spec document.
	ParseSpec = spec.Parse
	// CompileSpecAll expands and compiles a spec into campaign items.
	CompileSpecAll = spec.CompileAll
	// RunCampaign executes campaign items with fan-out + cancellation.
	RunCampaign = experiment.RunCampaign
	// RenderCampaign formats the consolidated cross-scenario report.
	RenderCampaign = experiment.RenderCampaign
	// CampaignFiles renders every figure's data as named CSV/JSON files.
	CampaignFiles = experiment.CampaignFiles
	// Scorecard prints the paper's values beside a campaign's readings.
	Scorecard = experiment.Scorecard
)

// Experiment runners — one per paper table/figure family.
type (
	// DDoSSpec is a row of Table 4 (an emulated attack).
	DDoSSpec = experiment.DDoSSpec
	// Report is one run's metrics snapshot plus invariant verdicts
	// (DESIGN.md §14); a cell-engine run's Outcome carries one.
	Report = metrics.Report
	// SpecDuration is a spec document's duration leaf ("10m").
	SpecDuration = spec.Duration
)

// Experiment entry points.
var (
	// WriteReportsJSON writes run reports as one JSON document.
	WriteReportsJSON = metrics.WriteReportsJSON
	// SpecByName returns a paper experiment (A–I) by name.
	SpecByName = experiment.SpecByName
)

// PaperExperiments are the paper's Table 4 experiments A–I.
var PaperExperiments = experiment.PaperExperiments

// RenderTable5 prints the Appendix A glue-vs-authoritative TTL table.
var RenderTable5 = experiment.RenderTable5

// Tracing and telemetry (DESIGN.md §14). Set RunConfig.Trace to record a
// deterministic query-lifecycle trace; the Outcome's Trace data exports
// to JSONL or Chrome trace_event format and reconstructs per-VP query
// spans for failure analysis.
type (
	// TraceConfig sizes the per-cell ring buffers and sets the probe
	// sampling stride.
	TraceConfig = trace.Config
	// TraceData is a run's merged per-cell trace.
	TraceData = trace.Data
	// Progress is the live telemetry tracker of a sharded run.
	Progress = telemetry.Progress
)

// Tracing and telemetry helpers.
var (
	// ReadTraceJSONL parses a trace written by TraceData.WriteJSONL.
	ReadTraceJSONL = trace.ReadJSONL
	// ValidateChromeTrace checks an exported Chrome trace_event document.
	ValidateChromeTrace = trace.ValidateChrome
	// FormatTraceEvent renders one event as a human-readable line.
	FormatTraceEvent = trace.FormatEvent
	// NewProgress creates a live progress tracker (stderr when w is nil).
	NewProgress = telemetry.NewProgress
	// ServeTelemetry starts the expvar + pprof + OpenMetrics HTTP
	// endpoint; it returns (addr, shutdown, error).
	ServeTelemetry = telemetry.Serve
)

// MustAAAA builds AAAA record data from an IPv6 literal, panicking on bad
// input.
func MustAAAA(s string) dnswire.RData { return dnswire.AAAA{Addr: dnswire.MustAddr(s)} }
