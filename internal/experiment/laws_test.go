package experiment

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ddos"
	"repro/internal/lazyrand"
	"repro/internal/recursive"
	"repro/internal/trace"
)

// drawRun draws one run from the space a scenario spec's settable leaves
// compile to: a family (ddos, caching or glue), a cell geometry that
// mostly spans several cells (ragged trailing cells and the single-cell
// edge included), a DDoS spec — one loss window or staged
// drop/NXDOMAIN/SERVFAIL phases — and the population's harvest,
// serve-stale and prefetch knobs.
func drawRun(seed int64) (string, Scenario, RunConfig) {
	rng := lazyrand.New(seed)
	cfg := RunConfig{
		Probes:      8 + rng.Intn(56),
		ShardProbes: 4 + rng.Intn(28),
		Seed:        rng.Int63(),
		Population: PopulationConfig{
			Harvest:          recursive.HarvestMode(rng.Intn(3)),
			ServeStaleDirect: rng.Intn(2) == 1,
		},
	}
	if rng.Intn(3) == 0 {
		cfg.Population.PrefetchDirect = []float64{0.1, 0.5}[rng.Intn(2)]
	}
	switch rng.Intn(3) {
	case 0:
		interval := time.Duration(5+rng.Intn(11)) * time.Minute
		spec := DDoSSpec{
			Name: "P", TTL: uint32(60 + rng.Intn(600)),
			DDoSStart:     interval,
			DDoSDur:       time.Duration(1+rng.Intn(2)) * interval,
			TotalDur:      time.Duration(3+rng.Intn(3)) * interval,
			ProbeInterval: interval,
			Loss:          []float64{0.5, 0.75, 0.9, 1}[rng.Intn(4)],
			TargetsAll:    rng.Intn(2) == 1,
		}
		if rng.Intn(2) == 1 {
			for at := interval; at < spec.TotalDur && len(spec.Phases) < 3; at += interval {
				spec.Phases = append(spec.Phases, ddos.Phase{
					Start: at, Duration: interval,
					Intensity: []float64{0.5, 0.9, 1}[rng.Intn(3)],
					Mode:      ddos.FailureMode(rng.Intn(3)),
				})
			}
		}
		return "ddos", DDoSScenario(spec), cfg
	case 1:
		cfg.TTL = uint32(60 + rng.Intn(1800))
		cfg.ProbeInterval = time.Duration(5+rng.Intn(16)) * time.Minute
		cfg.Rounds = 2 + rng.Intn(3)
		return "caching", CachingScenario(), cfg
	}
	return "glue", GlueScenario(), cfg
}

// cellLaws are the laws a finished cell is held to beyond its counters:
// no usable answer carries a TTL above the one the zone published, and
// only a resolver configured for serve-stale ever serves stale data.
func cellLaws(tb *Testbed) []string {
	var problems []string
	for _, a := range tb.Fleet.AllAnswers() {
		if a.Ok() && a.AnswerTTL > a.EncTTL {
			problems = append(problems, fmt.Sprintf("probe %d via %s: answer TTL %d above the zone's %d",
				a.ProbeID, a.Recursive, a.AnswerTTL, a.EncTTL))
		}
	}
	for _, l := range tb.Pop.Resolvers {
		if r := l.Resolver(); r != nil && !l.cfg.ServeStale && r.Stats().StaleServes > 0 {
			problems = append(problems, fmt.Sprintf("resolver %s served %d stale answers without serve-stale",
				l.addr, r.Stats().StaleServes))
		}
	}
	return problems
}

// drawRuns is one random draw run at Shards 1 (traced), 2 and 4.
type drawRuns struct {
	name     string
	outs     []*Outcome // indexed like drawShards
	problems []string   // cellLaws findings over every run
}

var drawShards = []int{1, 2, 4}

// randomDraws runs 25 draws once for the three tests below, which each
// hold them to one group of laws.
var randomDraws = sync.OnceValues(func() ([]drawRuns, error) {
	var draws []drawRuns
	for seed := int64(0); seed < 25; seed++ {
		kind, sc, cfg := drawRun(seed)
		d := drawRuns{name: fmt.Sprintf("seed %d (%s, %d/%d probes)", seed, kind, cfg.Probes, cfg.ShardProbes)}
		var mu sync.Mutex
		cfg.afterShard = func(cell int, tb *Testbed) {
			p := cellLaws(tb)
			mu.Lock()
			defer mu.Unlock()
			for _, s := range p {
				d.problems = append(d.problems, fmt.Sprintf("cell %d: %s", cell, s))
			}
		}
		for _, k := range drawShards {
			// Tracing never changes a report, so one traced pass suffices.
			cfg.Shards, cfg.Trace = k, nil
			if k == 1 {
				cfg.Trace = &trace.Config{}
			}
			out, err := Run(context.Background(), sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s K=%d: %v", d.name, k, err)
			}
			d.outs = append(d.outs, out)
		}
		draws = append(draws, d)
	}
	return draws, nil
})

func mustDraws(t *testing.T) []drawRuns {
	t.Helper()
	draws, err := randomDraws()
	if err != nil {
		t.Fatal(err)
	}
	return draws
}

// TestRandomDrawLaws holds random draws of the testbed to the engine's
// laws: a clean report (the engine laws and the family's own
// invariants) at every shard count, and the per-cell laws of cellLaws.
func TestRandomDrawLaws(t *testing.T) {
	for _, d := range mustDraws(t) {
		for i, out := range d.outs {
			for _, inv := range out.Report.FailedInvariants() {
				t.Errorf("%s K=%d: invariant %s failed: %s", d.name, drawShards[i], inv.Name, inv.Detail)
			}
		}
		for _, p := range d.problems {
			t.Errorf("%s: %s", d.name, p)
		}
		if t.Failed() {
			return // later draws would only repeat the failure
		}
	}
}

// TestRandomDrawShardAxis requires byte-identical tables and report at
// Shards 1 (traced), 2 and 4 for every random draw.
func TestRandomDrawShardAxis(t *testing.T) {
	for _, d := range mustDraws(t) {
		base := renderOutcome(t, d.outs[0])
		for i, out := range d.outs[1:] {
			if !bytes.Equal(base, renderOutcome(t, out)) {
				t.Errorf("%s: K=%d output differs from K=1", d.name, drawShards[i+1])
			}
		}
	}
}

// TestRandomDrawTraceSpans requires each random draw's traced run to
// leave a valid trace in which every stub query opens one span and
// closes it.
func TestRandomDrawTraceSpans(t *testing.T) {
	for _, d := range mustDraws(t) {
		checkSpans(t, d.name, d.outs[0])
	}
}

// checkSpans requires a structurally valid trace in which every stub
// query opened exactly one span and closed it, and in which the fleet's
// queries (the glue study queries through stubs of its own) each issued
// one.
func checkSpans(t *testing.T, name string, out *Outcome) {
	t.Helper()
	if problems := out.Trace.Validate(); len(problems) > 0 {
		t.Errorf("%s: trace validation failed: %v", name, problems)
	}
	issued := out.Trace.TypeCounts()[trace.EvStubIssue.String()]
	sent := int(out.Report.Metrics.Scope("vantage").Counter("queries_sent"))
	if issued == 0 || sent > 0 && issued != sent {
		t.Errorf("%s: %d stub_issue events, fleet sent %d queries", name, issued, sent)
	}
	spans := out.Trace.Spans()
	if len(spans) != issued {
		t.Errorf("%s: %d spans for %d issued queries", name, len(spans), issued)
	}
	for _, sp := range spans {
		if !sp.Complete || sp.End < sp.Start {
			t.Errorf("%s: span of probe %d (%q) incomplete or ends before it starts", name, sp.Probe, sp.Name)
			return
		}
	}
}
