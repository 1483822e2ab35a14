package proptest

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// traceScenario builds a directed random scenario suited to span
// matching: one stub client (so DNS query IDs never collide across
// clients) and digit-led names ("1.leaf.test.", "2.leaf.test.", ...)
// so every name maps to a distinct trace probe ID. The rest — TTLs,
// serve-stale, query schedule, attack window — is randomized from the
// seed like Generate.
func traceScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:     seed,
		LeafZone: "leaf.test.",
		LeafTTL:  uint32(10 + rng.Intn(80)),
		NegTTL:   uint32(5 + rng.Intn(30)),
	}
	nNames := 3 + rng.Intn(4)
	for i := 0; i < nNames; i++ {
		sc.Names = append(sc.Names, strconv.Itoa(i+1)+"."+sc.LeafZone)
	}
	sc.Resolvers = []ResolverProfile{
		{Shards: 1 + rng.Intn(3), ServeStale: rng.Intn(2) == 1},
	}
	sc.Clients = []int{0}

	rounds := 3 + rng.Intn(3)
	interval := time.Duration(20+rng.Intn(40)) * time.Second
	for round := 0; round < rounds; round++ {
		base := time.Duration(round) * interval
		for _, name := range sc.Names {
			if rng.Intn(10) < 8 {
				sc.Queries = append(sc.Queries, Query{
					At:     base + time.Duration(rng.Intn(3000))*time.Millisecond,
					Client: 0, Resolver: 0, Name: name,
				})
			}
		}
	}

	if rng.Intn(3) > 0 {
		sc.AttackStart = time.Duration(5+rng.Intn(30)) * time.Second
		sc.AttackDur = time.Duration(20+rng.Intn(60)) * time.Second
		sc.AttackLoss = []float64{0.5, 0.75, 0.9, 1.0}[rng.Intn(4)]
		sc.AttackTLD = rng.Intn(4) == 0
	}
	sc.Total = time.Duration(rounds)*interval + 30*time.Second
	return sc
}

// runTraced materializes sc with tracing on every engine and returns
// the run's single-cell trace.
func runTraced(t *testing.T, sc Scenario) *trace.Data {
	t.Helper()
	w, err := NewWorldOnClock(sc, clock.NewVirtual(worldEpoch), &trace.Config{})
	if err != nil {
		t.Fatalf("seed %d: NewWorld: %v", sc.Seed, err)
	}
	w.Run()
	tr := w.Net.Trace()
	return &trace.Data{
		SampleEvery: tr.SampleEvery(),
		Cells:       []trace.CellTrace{{Cell: 0, Dropped: tr.Dropped(), Events: tr.Events()}},
	}
}

// TestTraceSpanCompleteness is the proptest trace axis: across random
// directed scenarios, the recorded trace must be structurally sound
// (Validate returns nothing) and span-complete — every stub query that
// was issued opens exactly one span and closes it with exactly one
// terminal event (an answer or a timeout), even under attack windows
// that force long retry chains.
func TestTraceSpanCompleteness(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		sc := traceScenario(seed)
		td := runTraced(t, sc)

		if td.Len() == 0 {
			t.Fatalf("seed %d: trace recorded no events", seed)
		}
		if problems := td.Validate(); len(problems) > 0 {
			t.Fatalf("seed %d: trace validation failed: %v", seed, problems)
		}

		counts := td.TypeCounts()
		issued := counts[trace.EvStubIssue.String()]
		terminal := counts[trace.EvStubAnswer.String()] + counts[trace.EvStubTimeout.String()]
		if issued != len(sc.Queries) {
			t.Fatalf("seed %d: %d stub_issue events, want %d (one per scheduled query)",
				seed, issued, len(sc.Queries))
		}
		if terminal != issued {
			t.Fatalf("seed %d: %d terminal events for %d issued queries", seed, terminal, issued)
		}

		spans := td.Spans()
		if len(spans) != issued {
			t.Fatalf("seed %d: %d spans for %d issued queries", seed, len(spans), issued)
		}
		for _, sp := range spans {
			if !sp.Complete {
				t.Fatalf("seed %d: incomplete span for probe %d (%q)", seed, sp.Probe, sp.Name)
			}
			if sp.End < sp.Start {
				t.Fatalf("seed %d: span for probe %d ends before it starts", seed, sp.Probe)
			}
		}
	}
}

// TestTraceDeterministicReplay asserts the trace side of the package's
// determinism invariant: materializing and running the same scenario
// twice yields byte-identical JSONL traces.
func TestTraceDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		sc := traceScenario(seed)
		var runs [2][]byte
		for i := range runs {
			td := runTraced(t, sc)
			var buf bytes.Buffer
			if err := td.WriteJSONL(&buf); err != nil {
				t.Fatalf("seed %d: WriteJSONL: %v", seed, err)
			}
			runs[i] = buf.Bytes()
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Fatalf("seed %d: traces differ between identical runs (%d vs %d bytes)",
				seed, len(runs[0]), len(runs[1]))
		}
	}
}
