package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/stats"
	"repro/internal/vantage"
)

// TestSeriesCSV checks the Figure 6/8/14 export of tallied answers:
// the minute column at the probe interval, one row per round up to the
// last non-empty one, and the columns in answerCols order.
func TestSeriesCSV(t *testing.T) {
	ac := newDDoSAccum(DDoSSpec{ProbeInterval: 10 * time.Minute}, testbedStart, 4)
	ac.tallyAnswers([]vantage.Answer{
		{Round: 0, Outcome: vantage.Valid}, {Round: 0, Outcome: vantage.Valid}, {Round: 1, Outcome: vantage.Timeout},
		{Round: 2, Outcome: vantage.Discard}, {Round: 2, Outcome: vantage.Valid},
	})
	want := "minute,OK,SERVFAIL,NoAnswer\n0,2,0,0\n10,0,0,1\n20,1,1,0\n"
	if got := ac.answers.RoundCSV(answerCols...); got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

// TestCategoryNames: the Figure 7/13 column names are classify's, in
// Category order.
func TestCategoryNames(t *testing.T) {
	for c, name := range categoryNames {
		if got := classify.Category(c).String(); got != name {
			t.Errorf("column %d is %q, classify calls it %q", c, name, got)
		}
	}
	if len(categoryNames) != int(classify.CA)+1 {
		t.Errorf("%d category columns, want %d", len(categoryNames), int(classify.CA)+1)
	}
}

func TestLatencyAndFigureCSVs(t *testing.T) {
	spec, _ := SpecByName("E")
	spec.TotalDur = 40 * time.Minute
	spec.DDoSStart = 10 * time.Minute
	spec.DDoSDur = 10 * time.Minute
	res := mustRun(t, DDoSScenario(spec), RunConfig{Probes: 40, Seed: 1}).DDoS

	lat := LatencyCSV(res)
	if !strings.HasPrefix(lat, "minute,n,median_ms") {
		t.Errorf("latency header: %q", strings.Split(lat, "\n")[0])
	}
	if got := len(strings.Split(strings.TrimSpace(lat), "\n")); got != 6 {
		t.Errorf("latency rows = %d, want 4 rounds + overflow bin + header", got)
	}
	amp := AmplificationCSV(res)
	if !strings.HasPrefix(amp, "minute,rn_median") {
		t.Errorf("amplification header: %q", strings.Split(amp, "\n")[0])
	}
	urn := UniqueRnCSV(res)
	if !strings.HasPrefix(urn, "minute,unique_rn") {
		t.Errorf("unique-rn header: %q", strings.Split(urn, "\n")[0])
	}
	ecdf := ECDFCSV(stats.NewECDF([]float64{1, 2, 3}), 3)
	if !strings.HasPrefix(ecdf, "x,cdf") || !strings.Contains(ecdf, "3.00,1.0000") {
		t.Errorf("ecdf csv:\n%s", ecdf)
	}
}

// TestPerProbeTable7: a drill-experiment run carries the Table 7 of its
// busiest probe, the table its cell computes from the tap log it kept.
func TestPerProbeTable7(t *testing.T) {
	spec, _ := SpecByName(drillExperiment)
	spec.TotalDur = 60 * time.Minute
	spec.DDoSStart = 30 * time.Minute
	spec.DDoSDur = 20 * time.Minute
	out := mustRun(t, DDoSScenario(spec), RunConfig{Probes: 60, Seed: 5})
	t7 := out.DDoS.Table7
	if t7 == nil || t7.ProbeID == 0 {
		t.Fatalf("no busiest probe found: %+v", t7)
	}
	if len(t7.Rounds) != 6 {
		t.Fatalf("rounds = %d", len(t7.Rounds))
	}
	totalClient, totalAuth := 0, 0
	for _, row := range t7.Rounds {
		totalClient += row.ClientQueries
		totalAuth += row.AuthQueries
	}
	if totalClient == 0 {
		t.Error("no client queries recorded")
	}
	if totalAuth == 0 {
		t.Error("no authoritative-side queries recorded")
	}
	rendered := RenderTable7(*t7)
	if !strings.Contains(rendered, "cli-q") || !strings.Contains(rendered, "auth-q") {
		t.Errorf("render:\n%s", rendered)
	}

	// The run is one cell: the same cell run directly gives the same table.
	tb := runDDoSTestbed(spec, TestbedConfig{Probes: 60, Seed: mixSeed(5, 0), KeepAuthLog: true})
	ac := newDDoSAccum(spec, testbedStart, len(t7.Rounds))
	if id, _ := busiestProbeCount(tb); RenderTable7(ac.perProbe(tb, id)) != rendered {
		t.Errorf("direct cell's busiest probe %d gives\n%s\nthe run gives\n%s", id, RenderTable7(ac.perProbe(tb, id)), rendered)
	}
	// Unknown probe yields an empty (but well-formed) table.
	empty := ac.perProbe(tb, 60000)
	if len(empty.Rounds) != len(t7.Rounds) {
		t.Errorf("unknown probe has %d rounds, want %d", len(empty.Rounds), len(t7.Rounds))
	}
	for _, row := range empty.Rounds {
		if row.ClientQueries != 0 || row.AuthQueries != 0 {
			t.Error("unknown probe has queries")
		}
	}
}
