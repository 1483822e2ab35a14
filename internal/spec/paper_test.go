package spec

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestPaperCampaignReproducesCommittedTables replays the committed
// examples/specs/ campaigns through the library (Parse → CompileAll →
// RunCampaign → RenderCampaign) and pins the output against the committed
// report tables, at Shards 1 and 4. This is the full-scale determinism
// gate: ~1500 probes per run, tens of seconds per leg, so it is opt-in.
//
//	DIKES_PAPER_CAMPAIGN=1 go test ./internal/spec -run PaperCampaign -v
func TestPaperCampaignReproducesCommittedTables(t *testing.T) {
	if os.Getenv("DIKES_PAPER_CAMPAIGN") == "" {
		t.Skip("set DIKES_PAPER_CAMPAIGN=1 to run the full-scale paper campaign reproduction")
	}
	root := filepath.Join("..", "..")
	cases := []struct {
		committed string
		specs     string
	}{
		{"paper_run.txt", filepath.Join("examples", "specs", "paper")},
		{"paper_run_adversary.txt", filepath.Join("examples", "specs", "adversary")},
		{"paper_run_transport.txt", filepath.Join("examples", "specs", "transport.json")},
		{"paper_run_timeline.txt", filepath.Join("examples", "specs", "timeline.json")},
		{"paper_run_ablation.txt", filepath.Join("examples", "specs", "ablation")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.committed, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(root, tc.committed))
			if err != nil {
				t.Fatalf("read committed table: %v", err)
			}
			want := reportBody(string(raw))
			if want == "" {
				t.Fatalf("no 'campaign:' report body in %s", tc.committed)
			}
			for _, shards := range []int{1, 4} {
				items := compileSpecSet(t, filepath.Join(root, tc.specs), shards)
				results, err := experiment.RunCampaign(context.Background(), items, 0)
				if err != nil {
					t.Fatalf("RunCampaign (shards %d): %v", shards, err)
				}
				got := reportBody(experiment.RenderCampaign(results))
				if got != want {
					t.Errorf("shards=%d: rendered campaign differs from committed %s (regenerate with scripts/regen_tables.sh after inspecting)",
						shards, tc.committed)
				}
			}
		})
	}
}

// TestScorecardOverPaperCampaign is the repository's compact end-to-end
// reproduction gate: examples/specs/paper at test scale must score all
// eleven claims PASS, in the documented order, and the scorecard — like
// everything else read off a campaign — must not move with the cell layout
// in flight.
func TestScorecardOverPaperCampaign(t *testing.T) {
	t.Parallel()
	score := func(shards, shardProbes int) []experiment.CheckResult {
		items := compileSpecSet(t, filepath.Join("..", "..", "examples", "specs", "paper"), shards)
		for i := range items {
			items[i].Config.Probes, items[i].Config.ShardProbes = 200, shardProbes
		}
		results, err := experiment.RunCampaign(context.Background(), items, 0)
		if err != nil {
			t.Fatal(err)
		}
		return experiment.Scorecard(results)
	}
	rows := score(1, 64)
	table, ok := experiment.RenderCheck(rows)
	if !ok {
		t.Errorf("reproduction self-test failed:\n%s", table)
	}
	for i, prefix := range []string{"warm-cache miss rate", "TTL 60 @ 20min", "TTL truncation", "exp E", "exp H", "exp I",
		"exp A", "legit traffic multiplier", "BIND-like retries", "answers carry the child-side TTL", "root-like vs CDN-like"} {
		if i >= len(rows) || !strings.HasPrefix(rows[i].Claim, prefix) {
			t.Fatalf("row %d of %d is not the %q claim:\n%s", i, len(rows), prefix, table)
		}
	}
	if len(rows) != 11 {
		t.Errorf("%d rows, want 11", len(rows))
	}
	// Same cells, two in flight: identical rows.
	if par := score(2, 64); !reflect.DeepEqual(rows, par) {
		t.Errorf("scorecard differs between Shards 1 and 2 at ShardProbes 64:\n%v\n%v", rows, par)
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

// reportBody strips everything outside the RenderCampaign output: the
// '#' header comments, the cmd preamble, and the wall-time footer. The
// body starts at the first line beginning with "campaign: ".
func reportBody(s string) string {
	lines := strings.Split(s, "\n")
	start := -1
	for i, ln := range lines {
		if strings.HasPrefix(ln, "campaign: ") {
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
