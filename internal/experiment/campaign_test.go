package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ddos"
	"repro/internal/timeline"
)

// smallCampaign is a cross-family item list small enough for unit tests:
// one staged multi-phase attack (partial outage → total outage →
// recovery, mixing drop and SERVFAIL modes), one caching run, the §4
// passive study, one retry study, and the §8 implications study. Small
// ShardProbes values force multi-cell layouts even at tiny populations so
// the shard-invariance check is meaningful.
func smallCampaign(shards int) []CampaignItem {
	staged := DDoSSpec{
		Name: "staged", TTL: 1800,
		DDoSStart: 30 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur:      120 * time.Minute,
		ProbeInterval: 10 * time.Minute, Loss: 1, TargetsAll: true,
		Phases: []ddos.Phase{
			{Start: 30 * time.Minute, Duration: 30 * time.Minute,
				Intensity: 0.75, Mode: ddos.ModeServFail},
			{Start: 60 * time.Minute, Duration: 30 * time.Minute,
				Intensity: 1, Mode: ddos.ModeDrop},
		},
	}
	engine := RunConfig{Probes: 60, Seed: 7, Shards: shards, ShardProbes: 16}
	return []CampaignItem{
		{Name: "staged-attack", Scenario: DDoSScenario(staged), Config: engine},
		{Name: "caching-1800", Scenario: CachingScenario(),
			Config: RunConfig{Probes: 60, Seed: 7, Shards: shards, ShardProbes: 16,
				TTL: 1800, ProbeInterval: 10 * time.Minute, Rounds: 4}},
		{Name: "passive", Scenario: PassiveScenario(), Config: engine},
		{Name: "retries", Scenario: RetriesScenario(),
			Config: RunConfig{Probes: 40, Seed: 7, Shards: shards, ShardProbes: 16}},
		{Name: "implications", Scenario: ImplicationsScenario(),
			Config: RunConfig{Probes: 100, Seed: 7, Shards: shards, ShardProbes: 50}},
	}
}

// TestCampaignShardInvariant pins the campaign determinism contract: the
// rendered report and the CSV are byte-identical whether the runs execute
// monocell, multi-cell, or with different worker counts.
func TestCampaignShardInvariant(t *testing.T) {
	t.Parallel()
	base, err := RunCampaign(context.Background(), smallCampaign(1), 1)
	if err != nil {
		t.Fatalf("RunCampaign(shards=1): %v", err)
	}
	for _, r := range base {
		if r.Err != nil {
			t.Fatalf("run %s failed: %v", r.Item.Name, r.Err)
		}
	}
	want := RenderCampaign(base)
	wantCSV := CampaignCSV(base)
	if !strings.Contains(want, "staged-attack") || !strings.Contains(want, "campaign summary") {
		t.Fatalf("report missing expected sections:\n%s", want)
	}

	multi, err := RunCampaign(context.Background(), smallCampaign(4), 3)
	if err != nil {
		t.Fatalf("RunCampaign(shards=4): %v", err)
	}
	if got := RenderCampaign(multi); got != want {
		t.Errorf("campaign report differs between Shards=1 and Shards=4/Workers=3:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", want, got)
	}
	if got := CampaignCSV(multi); got != wantCSV {
		t.Errorf("campaign CSV differs between shard counts:\n%s\nvs\n%s", wantCSV, got)
	}
}

// TestCampaignStagedPhases checks the staged attack actually bites: the
// SERVFAIL brownout phase must surface SERVFAIL answers mid-run and the
// total-outage phase must suppress answers, with recovery afterwards.
func TestCampaignStagedPhases(t *testing.T) {
	t.Parallel()
	results, err := RunCampaign(context.Background(), smallCampaign(1)[:1], 1)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	res := results[0].Outcome.DDoS
	if res == nil {
		t.Fatal("no DDoS result")
	}
	if res.Answers.Total(ansServFail) == 0 {
		t.Error("SERVFAIL brownout phase produced no SERVFAIL answers")
	}
	// The last full round before the overflow bin is after recovery:
	// answers must flow again.
	last := res.Answers.Rounds() - 2
	if res.Answers.Get(last, ansOK) == 0 {
		t.Errorf("no OK answers after recovery in round %d", last)
	}
}

// errScenario fails its run with a plain (non-cancellation) error.
type errScenario struct{}

func (errScenario) Name() string { return "boom" }
func (errScenario) run(context.Context, RunConfig) (*Outcome, error) {
	return nil, errors.New("synthetic failure")
}

// TestCampaignSurfacesRunErrors pins satellite 6: a run failing for a
// non-cancellation reason must not vanish — its error lands in the
// result, the report, and the CSV, while sibling runs still complete.
func TestCampaignSurfacesRunErrors(t *testing.T) {
	t.Parallel()
	items := []CampaignItem{
		{Name: "bad", Scenario: errScenario{}, Config: RunConfig{}},
		{Name: "good", Scenario: RetriesScenario(), Config: RunConfig{Probes: 8, Seed: 3}},
	}
	results, err := RunCampaign(context.Background(), items, 2)
	if err != nil {
		t.Fatalf("RunCampaign returned campaign-level error for per-run failure: %v", err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "synthetic failure") {
		t.Errorf("per-run error not captured: %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Outcome == nil || results[1].Outcome.Retries == nil {
		t.Errorf("sibling run damaged by failing run: %+v", results[1])
	}
	report := RenderCampaign(results)
	if !strings.Contains(report, "ERROR: synthetic failure") {
		t.Errorf("report does not surface the run error:\n%s", report)
	}
	csv := CampaignCSV(results)
	if !strings.Contains(csv, "synthetic failure") {
		t.Errorf("CSV does not surface the run error:\n%s", csv)
	}
}

// TestCampaignCancellation: cancelling the context mid-campaign returns
// ErrCancelled with the finished runs' results intact.
func TestCampaignCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunCampaign(ctx, smallCampaign(1), 1)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("want 5 result slots, got %d", len(results))
	}
	report := RenderCampaign(results)
	if !strings.Contains(report, "campaign summary") {
		t.Errorf("cancelled campaign still renders a summary:\n%s", report)
	}
}

// TestCampaignInvalidSpecKeepsSiblings: a DDoS spec the engine rejects
// must yield a per-run error, not a silent nil slot, while the valid
// spec beside it still produces its result.
func TestCampaignInvalidSpecKeepsSiblings(t *testing.T) {
	t.Parallel()
	good, ok := SpecByName("B")
	if !ok {
		t.Fatal("paper spec B missing")
	}
	good.TotalDur = 60 * time.Minute // keep the test fast
	good.DDoSStart = 20 * time.Minute
	good.DDoSDur = 20 * time.Minute
	bad := good
	bad.ProbeInterval = 0 // division by zero round count → run error
	cfg := RunConfig{Probes: 40, Seed: 5, Shards: 1, ShardProbes: 16}
	results, err := RunCampaign(context.Background(), []CampaignItem{
		{Name: "good", Scenario: DDoSScenario(good), Config: cfg},
		{Name: "bad", Scenario: DDoSScenario(bad), Config: cfg},
	}, 2)
	if err != nil {
		t.Fatalf("per-run failure reported as a campaign-level error: %v", err)
	}
	if results[1].Err == nil {
		t.Fatal("invalid spec returned nil error")
	}
	if errors.Is(results[1].Err, ErrCancelled) {
		t.Fatalf("non-cancellation failure misreported as cancellation: %v", results[1].Err)
	}
	if results[0].Err != nil || results[0].Outcome.DDoS == nil {
		t.Error("valid spec's result dropped alongside the failing one")
	}
	if results[1].Outcome.DDoS != nil {
		t.Error("failing spec produced a result")
	}
}

// TestCampaignFilesNames pins the -csv export: which files a campaign
// yields and what they are called.
func TestCampaignFilesNames(t *testing.T) {
	t.Parallel()
	specH, _ := SpecByName("H")
	results, err := RunCampaign(context.Background(), []CampaignItem{
		{Name: "attack", Scenario: DDoSScenario(specH),
			Config: RunConfig{Probes: 40, Seed: 7, Timeline: &timeline.Config{Bucket: 10 * time.Minute}}},
		{Name: "passive", Scenario: PassiveScenario(), Config: RunConfig{Probes: 20, Seed: 7}},
		{Name: "retries", Scenario: RetriesScenario(), Config: RunConfig{Probes: 8, Seed: 7}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range CampaignFiles(results) {
		names = append(names, f.Name)
		var content strings.Builder
		if err := f.Write(&content); err != nil || content.Len() == 0 {
			t.Errorf("%s: err %v, %d bytes", f.Name, err, content.Len())
		}
	}
	want := "fig-answers-expH.csv fig9-latency-expH.csv fig10-authload-expH.csv " +
		"fig11-amplification-expH.csv fig12-uniquern-expH.csv timeline-expH.csv timeline-expH.json " +
		"fig4-nl-ecdf.csv fig5-root-all.csv campaign_summary.csv"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("files = %s\nwant    %s", got, want)
	}
}
