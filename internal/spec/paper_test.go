package spec

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestPaperCampaignReproducesCommittedTables replays the committed
// examples/specs/ campaigns through the library (Parse → CompileAll →
// RunCampaign → RenderCampaign, or Scorecard for paper_run_fidelity.txt)
// and pins the output against the committed report tables, at Shards 1
// and 4. This is the full-scale determinism
// gate: ~1500 probes per run, tens of seconds per leg, so it is opt-in.
//
//	DIKES_PAPER_CAMPAIGN=1 go test ./internal/spec -run PaperCampaign -v
func TestPaperCampaignReproducesCommittedTables(t *testing.T) {
	if os.Getenv("DIKES_PAPER_CAMPAIGN") == "" {
		t.Skip("set DIKES_PAPER_CAMPAIGN=1 to run the full-scale paper campaign reproduction")
	}
	root := filepath.Join("..", "..")
	campaign := func(r []experiment.CampaignResult) string {
		return reportBody(experiment.RenderCampaign(r), "campaign: ")
	}
	scorecard := func(r []experiment.CampaignResult) string {
		table, _ := experiment.Scorecard(r)
		return reportBody("---- scorecard ----\n"+table, "---- scorecard ----")
	}
	cases := []struct {
		committed, specs string
		body             string // first line of the compared body
		render           func([]experiment.CampaignResult) string
	}{
		{"paper_run.txt", filepath.Join("examples", "specs", "paper"), "campaign: ", campaign},
		{"paper_run_adversary.txt", filepath.Join("examples", "specs", "adversary"), "campaign: ", campaign},
		{"paper_run_transport.txt", filepath.Join("examples", "specs", "transport.json"), "campaign: ", campaign},
		{"paper_run_timeline.txt", filepath.Join("examples", "specs", "timeline.json"), "campaign: ", campaign},
		{"paper_run_ablation.txt", filepath.Join("examples", "specs", "ablation"), "campaign: ", campaign},
		{"paper_run_fidelity.txt", filepath.Join("examples", "specs", "paper"), "---- scorecard ----", scorecard},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.committed, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(root, tc.committed))
			if err != nil {
				t.Fatalf("read committed table: %v", err)
			}
			want := reportBody(string(raw), tc.body)
			if want == "" {
				t.Fatalf("no %q report body in %s", tc.body, tc.committed)
			}
			for _, shards := range []int{1, 4} {
				items := compileSpecSet(t, filepath.Join(root, tc.specs), shards)
				results, err := experiment.RunCampaign(context.Background(), items, 0)
				if err != nil {
					t.Fatalf("RunCampaign (shards %d): %v", shards, err)
				}
				if got := tc.render(results); got != want {
					t.Errorf("shards=%d: rendered campaign differs from committed %s (regenerate with scripts/regen_tables.sh after inspecting)",
						shards, tc.committed)
				}
			}
		})
	}
}

// TestScorecardOverPaperCampaign is the repository's compact end-to-end
// reproduction gate: examples/specs/paper at 200 probes must print the
// committed scorecard byte for byte — every reading, so a moved number
// fails here — and the scorecard, like everything else read off a
// campaign, must not move with the cell layout in flight.
//
//	go test ./internal/spec -run ScorecardOverPaperCampaign -update
func TestScorecardOverPaperCampaign(t *testing.T) {
	t.Parallel()
	golden := filepath.Join("testdata", "scorecard-200.golden")
	for _, shards := range []int{1, 2} {
		items := compileSpecSet(t, filepath.Join("..", "..", "examples", "specs", "paper"), shards)
		for i := range items {
			items[i].Config.Probes, items[i].Config.ShardProbes = 200, 64
		}
		results, err := experiment.RunCampaign(context.Background(), items, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, notRun := experiment.Scorecard(results)
		if len(notRun) > 0 {
			t.Errorf("shards=%d: %v", shards, notRun)
		}
		if *update && shards == 1 {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run go test ./internal/spec -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("shards=%d: scorecard differs from %s:\ngot:\n%swant:\n%s", shards, golden, got, want)
		}
	}
}

// TestAblationDirections runs examples/specs/ablation at a tenth of the
// committed scale and holds it to the directions §8's advice claims:
// serve-stale and prefetch each add answers through a complete outage, and
// valid answers never fall as capacity grows against the same flood.
func TestAblationDirections(t *testing.T) {
	t.Parallel()
	items := compileSpecSet(t, filepath.Join("..", "..", "examples", "specs", "ablation"), 1)
	for i := range items {
		items[i].Config.Probes = 150
	}
	results, err := experiment.RunCampaign(context.Background(), items, 0)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]int{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Item.Name, r.Err)
		}
		valid[r.Item.Name] = r.Outcome.DDoS.Table4.ValidAnswers
	}
	// Each step must not lose answers, and the marked ones must gain some.
	for _, step := range []struct {
		from, to string
		strict   bool
	}{
		{"stale-off", "stale-on", true}, {"prefetch-off", "prefetch-on", true},
		{"1x", "2x", false}, {"2x", "5x", false}, {"5x", "10x", false}, {"10x", "20x", false}, {"1x", "20x", true},
	} {
		from, to := valid[step.from], valid[step.to]
		if from == 0 || to < from || step.strict && to == from {
			t.Errorf("valid answers %s = %d, %s = %d", step.from, from, step.to, to)
		}
	}
}

// compileSpecSet loads every spec under path (file or directory, lexical
// order) and compiles it, overriding the engine shard count like the
// dikes -shards flag does.
func compileSpecSet(t *testing.T, path string, shards int) []experiment.CampaignItem {
	t.Helper()
	var paths []string
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir() {
		err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".json") {
				paths = append(paths, p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		paths = []string{path}
	}
	var items []experiment.CampaignItem
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse %s: %v", p, err)
		}
		compiled, err := CompileAll(s, filepath.Base(p))
		if err != nil {
			t.Fatalf("CompileAll %s: %v", p, err)
		}
		for i := range compiled {
			compiled[i].Config.Shards = shards
		}
		items = append(items, compiled...)
	}
	return items
}

// reportBody strips everything outside the rendered report: the '#'
// header comments, the cmd preamble, and the wall-time footer. The body
// starts at the first line beginning with first.
func reportBody(s, first string) string {
	lines := strings.Split(s, "\n")
	start := -1
	for i, ln := range lines {
		if strings.HasPrefix(ln, first) {
			start = i
			break
		}
	}
	if start < 0 {
		return ""
	}
	var out []string
	for _, ln := range lines[start:] {
		if strings.HasPrefix(ln, "total wall time:") {
			continue
		}
		out = append(out, ln)
	}
	return strings.TrimRight(strings.Join(out, "\n"), "\n")
}
