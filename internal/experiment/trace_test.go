package experiment

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/trace"
)

// traceJSONL runs sc through the sharded engine with tracing on and
// returns the serialized trace.
func traceJSONL(t *testing.T, sc Scenario, rc RunConfig, shards, sampleEvery int) []byte {
	t.Helper()
	rc.Probes, rc.ShardProbes, rc.Shards, rc.Seed = 48, 16, shards, 42
	rc.Trace = &trace.Config{SampleEvery: sampleEvery}
	out, err := Run(context.Background(), sc, rc)
	if err != nil {
		t.Fatalf("Shards=%d: %v", shards, err)
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		t.Fatalf("Shards=%d: no trace captured", shards)
	}
	if problems := out.Trace.Validate(); len(problems) > 0 {
		t.Fatalf("Shards=%d: trace validation failed: %v", shards, problems)
	}
	var buf bytes.Buffer
	if err := out.Trace.WriteJSONL(&buf); err != nil {
		t.Fatalf("Shards=%d: WriteJSONL: %v", shards, err)
	}
	return buf.Bytes()
}

// TestTraceShardInvariance extends the engine's determinism contract to
// the trace, for every family on the cell engine: with the cell layout
// fixed by (Probes, ShardProbes, Seed), the Shards concurrency knob must
// not change a single byte of the merged trace — full and sampled — and
// every family's trace is non-empty and structurally valid, because the
// observers reach its actors through the cell's network, not through
// family-specific wiring.
func TestTraceShardInvariance(t *testing.T) {
	families := []struct {
		name string
		sc   Scenario
		rc   RunConfig
	}{
		{"ddos", DDoSScenario(shortSpec()), RunConfig{}},
		{"caching", CachingScenario(), RunConfig{TTL: 1800, Rounds: 3}},
		{"glue", GlueScenario(), RunConfig{}},
		{"nxns", NXNSScenario(NXNSSpec{MaxFetch: 5}), RunConfig{}},
		{"poison", PoisonScenario(PoisonSpec{}), RunConfig{}},
		{"reflect", ReflectScenario(), RunConfig{}},
		{"transport", TransportScenario(TransportSpec{Flood: 0.5}), RunConfig{}},
		{"passive", PassiveScenario(), RunConfig{}},
		{"implications", ImplicationsScenario(), RunConfig{}},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for _, sample := range []int{1, 3} {
				base := traceJSONL(t, fam.sc, fam.rc, 1, sample)
				for _, k := range []int{2, 4, 8} {
					got := traceJSONL(t, fam.sc, fam.rc, k, sample)
					if !bytes.Equal(base, got) {
						t.Fatalf("sample=%d: Shards=%d trace differs from Shards=1 (%d vs %d bytes)",
							sample, k, len(got), len(base))
					}
				}
			}
		})
	}
}

// TestTraceChromeExport covers the remaining export path: the Chrome
// conversion of a real run's trace passes its validator.
func TestTraceChromeExport(t *testing.T) {
	cfg := RunConfig{Probes: 16, Seed: 7, Trace: &trace.Config{}}
	out, err := Run(context.Background(), DDoSScenario(shortSpec()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		t.Fatal("run captured no trace")
	}
	if problems := out.Trace.Validate(); len(problems) > 0 {
		t.Fatalf("trace validation failed: %v", problems)
	}
	var chrome bytes.Buffer
	if err := out.Trace.WriteChrome(&chrome); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	n, err := trace.ValidateChrome(bytes.NewReader(chrome.Bytes()))
	if err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	if n == 0 {
		t.Fatal("Chrome export contains no events")
	}
}
