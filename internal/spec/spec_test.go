package spec

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ddos"
	"repro/internal/experiment"
	"repro/internal/recursive"
)

// mustParse parses a spec that the test requires to be valid.
func mustParse(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

// wantErr asserts that parsing fails and the error mentions want.
func wantErr(t *testing.T, doc, want string) {
	t.Helper()
	_, err := Parse([]byte(doc))
	if err == nil {
		t.Fatalf("Parse accepted invalid spec (want error containing %q):\n%s", want, doc)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	// Top level.
	wantErr(t, `{"version": 1, "name": "x", "family": "glue", "bogus": 3}`, "bogus")
	// Nested section.
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": 60, "probe_intervall": "20m"}}`, "probe_intervall")
	// A knob the engine no longer has (runs in flight is -workers alone).
	wantErr(t, `{"version": 1, "name": "x", "family": "glue", "engine": {"workers": 2}}`, "workers")
	// Inside a disruption phase.
	wantErr(t, `{"version": 1, "name": "x", "family": "ddos",
		"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"},
		"disruption": [{"start": "60m", "duration": "30m", "loss": 1, "intensity": 2}]}`,
		"intensity")
}

func TestParseRejectsSchemaViolations(t *testing.T) {
	t.Parallel()
	wantErr(t, `{"version": 2, "name": "x", "family": "glue"}`, "version")
	wantErr(t, `{"version": 1, "family": "glue"}`, "name")
	wantErr(t, `{"version": 1, "name": "x", "family": "flood"}`, "unknown family")
	// The self-test is a scorecard over the paper campaign, not a family.
	wantErr(t, `{"version": 1, "name": "x", "family": "check"}`, "unknown family")
	// Section not taken by the family.
	wantErr(t, `{"version": 1, "name": "x", "family": "glue", "transport": {}}`,
		"does not take a transport section")
	// Retries trials are engine.probes: the family takes no workload, and
	// the trial count it once took is no field at all.
	wantErr(t, `{"version": 1, "name": "x", "family": "retries", "workload": {"ttl": 60}}`,
		"does not take a workload section")
	wantErr(t, `{"version": 1, "name": "x", "family": "retries", "workload": {"trials": 100}}`,
		`unknown field "trials"`)
	// paper conflicts with an explicit workload.
	wantErr(t, `{"version": 1, "name": "x", "family": "ddos", "paper": "B",
		"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"}}`,
		"mutually exclusive")
	wantErr(t, `{"version": 1, "name": "x", "family": "ddos", "paper": ["B", "Z"]}`,
		"unknown paper experiment")
	// Answer.Round is 16 bits: a schedule of more rounds is refused, not
	// wrapped.
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"rounds": 65537}}`, "workload.rounds must be at most 65536")
	wantErr(t, `{"version": 1, "name": "x", "family": "ddos",
		"workload": {"ttl": 60, "probe_interval": "1s", "total": "24h"},
		"disruption": [{"start": "1h", "duration": "1h", "loss": 0.5}]}`,
		"more than 65536 probe intervals")
	// Durations must be strings.
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"probe_interval": 1200}}`, "duration must be a string")
	// A family takes only the sections it reads: nxns builds its own
	// resolvers, so a population section would be silently ignored.
	wantErr(t, `{"version": 1, "name": "x", "family": "nxns", "population": {"harvest": "full"}}`,
		"does not take a population section")
	wantErr(t, `{"version": 1, "name": "x", "family": "reflect", "adversary": {}}`,
		"does not take a adversary section")
}

// TestParseRejectsRemovedFields: knobs that no committed spec ever set
// are constants in the code now, and a spec naming one is refused like
// any other typo.
func TestParseRejectsRemovedFields(t *testing.T) {
	t.Parallel()
	ddos := func(phase string) string {
		return `{"version": 1, "name": "x", "family": "ddos",
			"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"},
			"disruption": [{"start": "60m", "duration": "30m", "loss": 1, ` + phase + `}]}`
	}
	for _, tc := range []struct{ doc, field string }{
		{`{"version": 1, "name": "x", "family": "glue", "engine": {"trace": true}}`, "trace"},
		{`{"version": 1, "name": "x", "family": "glue", "engine": {"trace_sample": 4}}`, "trace_sample"},
		{`{"version": 1, "name": "x", "family": "caching", "population": {"max_fetch": 5}}`, "max_fetch"},
		{`{"version": 1, "name": "x", "family": "caching", "population": {"random_ids": true}}`, "random_ids"},
		{`{"version": 1, "name": "x", "family": "caching", "population": {"no_bailiwick": true}}`, "no_bailiwick"},
		{`{"version": 1, "name": "x", "family": "caching", "workload": {"queries_before": 6}}`, "queries_before"},
		{ddos(`"targets": "first"`), "targets"},
		{ddos(`"mode": "servfail", "records": ["1414.cachetest.nl."]`), "records"},
		{`{"version": 1, "name": "x", "family": "nxns", "adversary": {"nxns": {"widths": [4]}}}`, "widths"},
		{`{"version": 1, "name": "x", "family": "poison", "adversary": {"poison": {"id_window": 8}}}`, "id_window"},
		{`{"version": 1, "name": "x", "family": "poison", "adversary": {"poison": {"waves": 8}}}`, "waves"},
		{`{"version": 1, "name": "x", "family": "poison", "adversary": {"poison": {"wave_every": "5ms"}}}`, "wave_every"},
		{`{"version": 1, "name": "x", "family": "poison", "adversary": {"poison": {"port_guess": 0.5}}}`, "port_guess"},
		{`{"version": 1, "name": "x", "family": "reflect", "adversary": {"reflect": {}}}`, "reflect"},
		{`{"version": 1, "name": "x", "family": "transport", "transport": {"bufs": [512]}}`, "bufs"},
		{`{"version": 1, "name": "x", "family": "transport", "transport": {"tcp_loss": 0.1}}`, "tcp_loss"},
	} {
		wantErr(t, tc.doc, `unknown field "`+tc.field+`"`)
	}
}

func TestParseRejectsBadPhases(t *testing.T) {
	t.Parallel()
	base := func(phases string) string {
		return `{"version": 1, "name": "x", "family": "ddos",
			"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"},
			"disruption": [` + phases + `]}`
	}
	// Overlapping windows.
	wantErr(t, base(`{"start": "60m", "duration": "40m", "loss": 1},
		{"start": "80m", "duration": "20m", "loss": 0.5}`), "overlaps")
	// Open-ended phase before the last.
	wantErr(t, base(`{"start": "60m", "loss": 1},
		{"start": "90m", "duration": "10m", "loss": 0.5}`), "only legal on the last phase")
	// Loss out of range.
	wantErr(t, base(`{"start": "60m", "duration": "30m", "loss": 1.5}`), "[0, 1]")
	// Both intensity forms at once.
	wantErr(t, base(`{"start": "60m", "duration": "30m", "loss": 1, "attack_qps": 100}`),
		"exactly one of loss or attack_qps")
	// Neither intensity form.
	wantErr(t, base(`{"start": "60m", "duration": "30m"}`), "exactly one of loss or attack_qps")
	// Unknown mode.
	wantErr(t, base(`{"start": "60m", "duration": "30m", "loss": 1, "mode": "slow"}`), "mode")
}

func TestParseRejectsBadSweeps(t *testing.T) {
	t.Parallel()
	// Empty sweep.
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": {"sweep": []}}}`, "empty sweep")
	// Malformed axis value.
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": {"sweep": [60], "also": 1}}}`, "axis")
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": "sixty"}}`, "axis")
	// Sweep values still range-checked.
	wantErr(t, `{"version": 1, "name": "x", "family": "transport",
		"transport": {"flood": {"sweep": [0, 1.5]}}}`, "[0, 1]")
}

// sweepOfTrue is a {"sweep": [true × n]} axis: the shape that made a
// 2 KB poison spec compile to 40 000 identically named runs.
func sweepOfTrue(n int) string {
	return `{"sweep": [` + strings.TrimSuffix(strings.Repeat("true,", n), ",") + `]}`
}

// TestSweepExpansionIsBounded: a sweep is a small request for multiplied
// work, so repeats (duplicate run names) and products past MaxRuns are
// rejected by Parse, before Expand clones anything; an error never
// quotes more than ~64 bytes of the offending value.
func TestSweepExpansionIsBounded(t *testing.T) {
	start := time.Now()
	wantErr(t, `{"version": 1, "name": "x", "family": "poison", "adversary": {"poison": {
		"random_ids": `+sweepOfTrue(200)+`, "no_bailiwick": `+sweepOfTrue(200)+`}}}`, "sweep repeats a value")
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("rejecting the 200x200 sweep took %v, want < 50ms", d)
	}
	wantErr(t, `{"version": 1, "name": "x", "family": "ddos", "paper": ["A", "B", "A"]}`, "paper: sweep repeats")
	wantErr(t, `{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": {"sweep": [60, 1800, 60]}}}`, "workload.ttl: sweep repeats")

	ttls := make([]string, MaxRuns+1)
	for i := range ttls {
		ttls[i] = strconv.Itoa(i + 1)
	}
	over := `{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": {"sweep": [` + strings.Join(ttls, ",") + `]}}}`
	wantErr(t, over, "more than 1024 runs")
	// A hand-built spec meets the same bound in Expand.
	s := mustParse(t, `{"version": 1, "name": "x", "family": "caching", "workload": {"ttl": 60}}`)
	s.Workload.TTL = &Axis{}
	for i := 0; i <= MaxRuns; i++ {
		s.Workload.TTL.sweep = append(s.Workload.TTL.sweep, float64(i+1))
	}
	if out, err := Expand(s); err == nil || !strings.Contains(err.Error(), "more than 1024 runs") {
		t.Errorf("Expand of %d distinct TTLs: %d runs, err = %v", MaxRuns+1, len(out), err)
	}

	_, err := Parse([]byte(`{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": "` + strings.Repeat("sixty", 1000) + `"}}`))
	if err == nil || len(err.Error()) > 200 {
		t.Errorf("axis error echoes its input: %d bytes: %.80s...", len(err.Error()), err)
	}
}

// TestBucketFloor: a timeline bin narrower than MinBucket (or negative)
// sized the collector by horizon/bucket and panicked in makeslice.
func TestBucketFloor(t *testing.T) {
	t.Parallel()
	spec := func(bucket string) string {
		return `{"version": 1, "name": "x", "family": "ddos", "paper": "H",
			"observability": {"timeline": true, "bucket": "` + bucket + `"}}`
	}
	wantErr(t, spec("1ns"), "observability.bucket")
	wantErr(t, spec("-1m"), "observability.bucket")
	mustParse(t, spec("1s"))
	mustParse(t, spec("0s"))
}

// TestObservabilityFamilies: caching and implications specs may arm the
// timeline like ddos, and their runs return it at the spec's bucket; a
// family without a horizon still rejects the section.
func TestObservabilityFamilies(t *testing.T) {
	t.Parallel()
	for _, family := range []string{"caching", "implications"} {
		s := mustParse(t, `{"version": 1, "name": "x", "family": "`+family+`",
			"engine": {"probes": 20}, "observability": {"timeline": true, "bucket": "5m"}}`)
		sc, cfg, err := Compile(s)
		if err != nil {
			t.Fatalf("%s: Compile: %v", family, err)
		}
		out, err := experiment.Run(context.Background(), sc, cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", family, err)
		}
		if out.Timeline == nil || out.Timeline.Bucket != 5*time.Minute {
			t.Errorf("%s: timeline = %+v, want one at 5m buckets", family, out.Timeline)
		}
	}
	wantErr(t, `{"version": 1, "name": "x", "family": "glue", "observability": {"timeline": true}}`, "observability")
}

func TestExpandPaperList(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "paper", "family": "ddos",
		"paper": ["A", "B", "C"]}`)
	out, err := Expand(s)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var names []string
	for _, sp := range out {
		names = append(names, sp.Name)
	}
	if got, want := strings.Join(names, " "), "paper-A paper-B paper-C"; got != want {
		t.Errorf("expanded names = %q, want %q", got, want)
	}
}

func TestExpandPoisonMatrixOrder(t *testing.T) {
	t.Parallel()
	// The committed poisoning matrix's column order: the spec declares
	// random_ids [false, true] (outer) and no_bailiwick [true, false]
	// (inner); expansion preserves the declared orders.
	s := mustParse(t, `{"version": 1, "name": "poison", "family": "poison",
		"adversary": {"poison": {
			"random_ids": {"sweep": [false, true]},
			"no_bailiwick": {"sweep": [true, false]}}}}`)
	out, err := Expand(s)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var names []string
	for _, sp := range out {
		names = append(names, sp.Name)
	}
	want := "poison-seqid-nobw poison-seqid-bw poison-randid-nobw poison-randid-bw"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("poison matrix order = %q, want %q", got, want)
	}
}

func TestExpandTTLSweep(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "caching", "family": "caching",
		"workload": {"ttl": {"sweep": [60, 1800]}, "probe_interval": "20m"}}`)
	out, err := Expand(s)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(out) != 2 || out[0].Name != "caching-ttl60" || out[1].Name != "caching-ttl1800" {
		t.Fatalf("ttl sweep expansion wrong: %+v", out)
	}
	if out[0].Workload.TTL.IsSweep() || out[0].Workload.TTL.Value() != 60 {
		t.Errorf("expanded axis not scalar 60: %+v", out[0].Workload.TTL)
	}
	// The shared sections survive the clone.
	if out[1].Workload.ProbeInterval.D() != 20*time.Minute {
		t.Errorf("probe_interval lost in expansion: %v", out[1].Workload.ProbeInterval.D())
	}
}

func TestCompileRejectsUnexpandedSweep(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "caching", "family": "caching",
		"workload": {"ttl": {"sweep": [60, 1800]}}}`)
	if _, _, err := Compile(s); err == nil || !strings.Contains(err.Error(), "unexpanded sweep") {
		t.Fatalf("Compile accepted an unexpanded sweep: %v", err)
	}
}

func TestCompileDefaults(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "g", "family": "glue"}`)
	sc, cfg, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if sc.Name() != "glue" {
		t.Errorf("scenario = %q, want glue", sc.Name())
	}
	if cfg.Seed != DefaultSeed || cfg.Shards != 1 {
		t.Errorf("defaults: Seed=%d Shards=%d, want %d/1", cfg.Seed, cfg.Shards, int64(DefaultSeed))
	}
}

func TestCompileStagedPhases(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "staged", "family": "ddos",
		"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"},
		"disruption": [
			{"start": "60m", "duration": "30m", "loss": 0.5, "mode": "servfail"},
			{"start": "90m", "duration": "30m", "loss": 1}
		]}`)
	sc, _, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ds := sc.(interface{ Spec() experiment.DDoSSpec }).Spec()
	if len(ds.Phases) != 2 {
		t.Fatalf("phases = %+v, want 2", ds.Phases)
	}
	p0, p1 := ds.Phases[0], ds.Phases[1]
	if p0.Mode != ddos.ModeServFail || p0.Intensity != 0.5 || p0.Start != 60*time.Minute ||
		p0.Duration != 30*time.Minute {
		t.Errorf("phase 0 miscompiled: %+v", p0)
	}
	if p1.Mode != ddos.ModeDrop || p1.Intensity != 1 || p1.Start != 90*time.Minute {
		t.Errorf("phase 1 miscompiled: %+v", p1)
	}
	// Display envelope spans the staged window.
	if ds.DDoSStart != 60*time.Minute || ds.DDoSDur != 60*time.Minute || ds.Loss != 1 || !ds.TargetsAll {
		t.Errorf("envelope: start=%v dur=%v loss=%v all=%t", ds.DDoSStart, ds.DDoSDur, ds.Loss, ds.TargetsAll)
	}
}

func TestCompileSingleDropLowersToLegacyWindow(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "simple", "family": "ddos",
		"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"},
		"disruption": [{"start": "60m", "duration": "60m", "loss": 0.9}]}`)
	sc, _, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ds := sc.(interface{ Spec() experiment.DDoSSpec }).Spec()
	if len(ds.Phases) != 0 {
		t.Errorf("single drop phase should lower onto the legacy scalar window, got phases %+v", ds.Phases)
	}
	if ds.Loss != 0.9 || ds.DDoSStart != time.Hour || ds.DDoSDur != time.Hour || !ds.TargetsAll {
		t.Errorf("legacy window miscompiled: %+v", ds)
	}
}

func TestCompileFloodIntensity(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "flood", "family": "ddos",
		"workload": {"ttl": 1800, "probe_interval": "10m", "total": "3h"},
		"disruption": [{"start": "60m", "duration": "60m",
			"attack_qps": 300, "capacity_qps": 100}]}`)
	sc, _, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ds := sc.(interface{ Spec() experiment.DDoSSpec }).Spec()
	want := ddos.Flood{AttackQPS: 300, CapacityQPS: 100}.LossRate()
	if ds.Loss != want {
		t.Errorf("flood-form intensity = %v, want LossRate %v", ds.Loss, want)
	}
}

func TestCompilePopulation(t *testing.T) {
	t.Parallel()
	s := mustParse(t, `{"version": 1, "name": "p", "family": "caching",
		"population": {"harvest": "full", "serve_stale": true, "prefetch": 0.5}}`)
	_, cfg, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pop := cfg.Population
	if pop.Harvest != recursive.HarvestFull || !pop.ServeStaleDirect || pop.PrefetchDirect != 0.5 {
		t.Errorf("population miscompiled: %+v", pop)
	}
}
