package experiment

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vantage"
)

// TestTallyAnswersOverflowRound pins the round-attribution fix: answers
// landing at or past TotalDur go into the overflow bin (index rounds) in
// BOTH the outcome series and the latency series, and the overflow bin is
// summarized. Pre-fix, outcomes used the raw round index while RTTs used
// a clamped one, and the overflow latency bin was silently dropped.
func TestTallyAnswersOverflowRound(t *testing.T) {
	const rounds = 3
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	ac := newDDoSAccum(DDoSSpec{ProbeInterval: 10 * time.Minute}, start, rounds)
	answers := []vantage.Answer{
		{Round: 0, Outcome: vantage.Valid, RTT: 20 * time.Millisecond},
		{Round: 1, Outcome: vantage.Discard, RTT: 35 * time.Millisecond}, // SERVFAIL-class
		{Round: rounds, Outcome: vantage.Valid, RTT: 42 * time.Millisecond},
		{Round: rounds + 5, Outcome: vantage.Timeout}, // clamps into the overflow bin
	}
	ac.tallyAnswers(answers)
	res := ac.finalize()

	if got := len(res.Latency); got != rounds+1 {
		t.Fatalf("len(Latency) = %d, want %d (rounds + overflow bin)", got, rounds+1)
	}
	if got := res.Answers.Get(rounds, ansOK); got != 1 {
		t.Errorf("overflow OK = %v, want 1", got)
	}
	if got := res.Answers.Get(rounds, ansNoAnswer); got != 1 {
		t.Errorf("overflow NoAnswer = %v, want 1", got)
	}
	if got := res.Latency[rounds].N; got != 1 {
		t.Errorf("overflow latency samples = %d, want 1", got)
	}
	if res.Table4.Queries != 4 || res.Table4.TotalAnswers != 3 || res.Table4.ValidAnswers != 2 {
		t.Errorf("Table4 = %+v", res.Table4)
	}
	// The per-round consistency the report checks must hold by
	// construction now that both series share the clamped index.
	if inv := latencyMatchesAnswered(res); !inv.OK {
		t.Errorf("latency invariant failed: %s", inv.Detail)
	}
}

// smallSpec is a short DDoS run for report-level tests.
func smallSpec() DDoSSpec {
	spec, _ := SpecByName("B")
	spec.TotalDur = 40 * time.Minute
	spec.DDoSStart = 10 * time.Minute
	spec.DDoSDur = 10 * time.Minute
	return spec
}

// TestDDoSReportInvariantsHold runs a real (small) attack and requires
// every cross-component invariant to pass, then injects an accounting
// error into the result and requires the checker to catch it.
func TestDDoSReportInvariantsHold(t *testing.T) {
	out := mustRun(t, DDoSScenario(smallSpec()), RunConfig{Probes: 30, Seed: 11})
	res := out.DDoS
	if out.Report == nil {
		t.Fatal("no report attached")
	}
	if !out.Report.OK() {
		t.Fatalf("invariants failed on a clean run: %+v", out.Report.FailedInvariants())
	}
	if len(out.Report.Invariants) < 5 {
		t.Errorf("only %d invariants evaluated", len(out.Report.Invariants))
	}

	// Inject a phantom answer: the outcome series no longer sums to the
	// query total and the latency series no longer matches the answered
	// count. The checker must flag the run.
	res.Answers.AddBin(0, ansOK, 1)
	invs := DDoSInvariants(res, out.Report.Metrics)
	if metrics.AllOK(invs) {
		t.Error("injected accounting error not detected")
	}
}

// TestCachingReportInvariantsHold is the §3 counterpart.
func TestCachingReportInvariantsHold(t *testing.T) {
	out := mustRun(t, CachingScenario(), RunConfig{Probes: 30, TTL: 1800, Rounds: 4, Seed: 5})
	if out.Report == nil {
		t.Fatal("no report attached")
	}
	if !out.Report.OK() {
		t.Fatalf("invariants failed on a clean run: %+v", out.Report.FailedInvariants())
	}
}

// TestReportsIdenticalAcrossWorkers requires the run reports — metrics
// snapshots included — to be byte-identical between sequential and
// parallel execution of the same seeds.
func TestReportsIdenticalAcrossWorkers(t *testing.T) {
	specs := []DDoSSpec{smallSpec()}
	spec2 := smallSpec()
	spec2.Name = "C"
	spec2.Loss = 0.5
	specs = append(specs, spec2)

	seq := runMatrix(t, specs, RunConfig{Probes: 24, Seed: 7}, 1)
	par := runMatrix(t, specs, RunConfig{Probes: 24, Seed: 7}, 4)
	for i := range specs {
		var a, b bytes.Buffer
		if err := seq[i].Report.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := par[i].Report.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("spec %s: reports differ between workers=1 and workers=4", specs[i].Name)
		}
	}
}

// TestReportLabelsPerFamily pins each cell family's report name and exact
// label key set: runCells writes probes, seed and the shard layout, the
// family adds only its own knobs.
func TestReportLabelsPerFamily(t *testing.T) {
	common := []string{"probes", "seed", "shard_cells", "shard_probes"}
	for _, tc := range []struct {
		sc   Scenario
		name string
		own  []string
	}{
		{DDoSScenario(smallSpec()), "ddos-B", []string{"experiment", "loss", "ttl"}},
		{CachingScenario(), "caching-ttl1800", []string{"rounds", "ttl"}},
		{GlueScenario(), "glue", nil},
		{NXNSScenario(NXNSSpec{}), "nxns", []string{"max_fetch", "widths"}},
		{PoisonScenario(PoisonSpec{}), "poison-seqid-bw", []string{"id_window", "no_bailiwick", "random_ids", "waves"}},
		{ReflectScenario(), "reflect", []string{"edns_size"}},
		{TransportScenario(TransportSpec{}), "transport", []string{"bufs", "flood", "tcp_loss"}},
	} {
		rep := mustRun(t, tc.sc, RunConfig{Probes: 24, Seed: 9, TTL: 1800, Rounds: 3}).Report
		var got []string
		for k := range rep.Labels {
			got = append(got, k)
		}
		want := append(append([]string{}, common...), tc.own...)
		sort.Strings(got)
		sort.Strings(want)
		if rep.Name != tc.name || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report %q labels %v, want %q %v", tc.sc.Name(), rep.Name, got, tc.name, want)
		}
		if rep.Labels["probes"] != "24" || rep.Labels["seed"] != "9" {
			t.Errorf("%s: probes/seed labels = %s/%s, want 24/9", tc.sc.Name(), rep.Labels["probes"], rep.Labels["seed"])
		}
	}
}
