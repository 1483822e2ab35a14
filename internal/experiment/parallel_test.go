package experiment

import (
	"context"
	"testing"
	"time"
)

// runMatrix runs one DDoS scenario per spec through RunCampaign on the
// given worker count and returns the results in spec order.
func runMatrix(t *testing.T, specs []DDoSSpec, cfg RunConfig, workers int) []*Outcome {
	t.Helper()
	items := make([]CampaignItem, len(specs))
	for i, spec := range specs {
		items[i] = CampaignItem{Name: spec.Name, Scenario: DDoSScenario(spec), Config: cfg}
	}
	results, err := RunCampaign(context.Background(), items, workers)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Outcome, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %s: %v", r.Item.Name, r.Err)
		}
		out[i] = r.Outcome
	}
	return out
}

// renderDDoS flattens everything the cmd prints for one attack run into a
// single string, so a byte-level comparison covers Table 4 plus the
// Answers/Classes/latency series.
func renderDDoS(res *DDoSResult) string {
	return RenderTable4([]*DDoSResult{res}) +
		res.Answers.RoundTable(answerCols...) +
		res.Classes.RoundTable(classCols...) +
		RenderLatency(res)
}

// TestMatrixParallelMatchesSequential pins the campaign runner's core
// guarantee: for every paper experiment A–I, fanning the matrix across
// workers produces byte-identical rendered tables to running it one spec
// at a time with the same seed.
func TestMatrixParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full A-I matrix twice")
	}
	const probes = 24
	const seed = 7
	cfg := RunConfig{Probes: probes, Seed: seed}
	seq := runMatrix(t, PaperExperiments, cfg, 1)
	par := runMatrix(t, PaperExperiments, cfg, 4)
	if len(seq) != len(PaperExperiments) || len(par) != len(PaperExperiments) {
		t.Fatalf("got %d sequential / %d parallel results for %d specs",
			len(seq), len(par), len(PaperExperiments))
	}
	for i, spec := range PaperExperiments {
		if par[i].DDoS.Spec.Name != spec.Name {
			t.Fatalf("result %d is for experiment %q, want %q (order not preserved)",
				i, par[i].DDoS.Spec.Name, spec.Name)
		}
		if got, want := renderDDoS(par[i].DDoS), renderDDoS(seq[i].DDoS); got != want {
			t.Errorf("experiment %s: parallel run diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
				spec.Name, want, got)
		}
	}
}

// TestCachingSweepParallelMatchesSequential does the same for the §3
// baseline sweep.
func TestCachingSweepParallelMatchesSequential(t *testing.T) {
	var items []CampaignItem
	for _, ttl := range []uint32{60, 3600, 86400} {
		items = append(items, CampaignItem{Scenario: CachingScenario(), Config: RunConfig{
			Probes: 24, TTL: ttl, ProbeInterval: 20 * time.Minute,
			Rounds: 4, Seed: 7,
		}})
	}
	sweep := func(workers int) []*CachingResult {
		results, err := RunCampaign(context.Background(), items, workers)
		if err != nil {
			t.Fatal(err)
		}
		var rs []*CachingResult
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			rs = append(rs, r.Outcome.Caching)
		}
		return rs
	}
	seq := sweep(1)
	par := sweep(3)
	render := func(rs []*CachingResult) string {
		return RenderTable1(rs) + RenderTable2(rs) + RenderTable3(rs)
	}
	if got, want := render(par), render(seq); got != want {
		t.Errorf("parallel sweep diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
			want, got)
	}
}

// TestReplicateParallelDeterminism: the fan-out over seeds must not change
// what Replicate reports.
func TestReplicateParallelDeterminism(t *testing.T) {
	metric := func(seed int64) float64 {
		// Runs on Replicate's workers, so no t.Fatal here.
		out, err := Run(context.Background(), CachingScenario(), RunConfig{
			Probes: 16, TTL: 3600, ProbeInterval: 20 * time.Minute,
			Rounds: 3, Seed: seed,
		})
		if err != nil {
			t.Error(err)
			return 0
		}
		return out.Caching.MissRate
	}
	a := Replicate(4, 100, metric)
	b := Replicate(4, 100, metric)
	if a != b {
		t.Errorf("Replicate not deterministic across calls: %+v vs %+v", a, b)
	}
}
