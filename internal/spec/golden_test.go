package spec

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestCompileGoldens pins, for every committed example spec, the exact
// scenarios and run configs the compiler produces. When the schema or the
// lowering changes, the diff must be inspected and the goldens regenerated
// with -update — this is the drift gate for examples/specs/.
func TestCompileGoldens(t *testing.T) {
	t.Parallel()
	root := filepath.Join("..", "..", "examples", "specs")
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example specs under %s", root)
	}
	sort.Strings(paths)

	for _, path := range paths {
		rel, _ := filepath.Rel(root, path)
		goldenName := strings.ReplaceAll(strings.TrimSuffix(rel, ".json"), string(filepath.Separator), "-") + ".golden"
		t.Run(goldenName, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			items, err := CompileAll(s, rel)
			if err != nil {
				t.Fatalf("CompileAll: %v", err)
			}
			got := renderItems(items)
			goldenPath := filepath.Join("testdata", goldenName)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/spec -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("compiled output drifted from %s.\ngot:\n%swant:\n%s\n(regenerate with go test ./internal/spec -update after inspecting the diff)",
					goldenPath, got, want)
			}
		})
	}
}

// renderItems formats compiled campaign items deterministically: no
// pointer addresses, explicit field names, one block per run.
func renderItems(items []experiment.CampaignItem) string {
	var b strings.Builder
	for i, it := range items {
		fmt.Fprintf(&b, "run %d: %s\n", i+1, it.Name)
		fmt.Fprintf(&b, "  scenario: %s\n", it.Scenario.Name())
		b.WriteString(renderConfig(it.Config))
		b.WriteString(renderLowered(it.Scenario))
		b.WriteString("\n")
	}
	return b.String()
}

func renderConfig(cfg experiment.RunConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  config: Probes=%d Seed=%d Shards=%d ShardProbes=%d\n",
		cfg.Probes, cfg.Seed, cfg.Shards, cfg.ShardProbes)
	if cfg.TTL != 0 || cfg.ProbeInterval != 0 || cfg.Rounds != 0 {
		fmt.Fprintf(&b, "  workload: TTL=%d ProbeInterval=%v Rounds=%d\n", cfg.TTL, cfg.ProbeInterval, cfg.Rounds)
	}
	if cfg.Population != (experiment.PopulationConfig{}) {
		fmt.Fprintf(&b, "  population: %+v\n", cfg.Population)
	}
	if cfg.Trace != nil {
		fmt.Fprintf(&b, "  trace: %+v\n", *cfg.Trace)
	}
	if cfg.Timeline != nil {
		fmt.Fprintf(&b, "  timeline: %+v\n", *cfg.Timeline)
	}
	return b.String()
}

// renderLowered prints the family-specific spec a scenario wraps, via the
// Spec() accessors the experiment package exposes for exactly this purpose.
func renderLowered(sc experiment.Scenario) string {
	switch s := sc.(type) {
	case interface{ Spec() experiment.DDoSSpec }:
		d := s.Spec()
		var b strings.Builder
		fmt.Fprintf(&b, "  ddos: TTL=%d Start=%v Dur=%v Loss=%g TargetsAll=%t Total=%v Interval=%v\n",
			d.TTL, d.DDoSStart, d.DDoSDur, d.Loss, d.TargetsAll, d.TotalDur, d.ProbeInterval)
		for i, ph := range d.Phases {
			fmt.Fprintf(&b, "  phase %d: Start=%v Duration=%v Intensity=%g Mode=%v\n",
				i, ph.Start, ph.Duration, ph.Intensity, ph.Mode)
		}
		return b.String()
	case interface{ Spec() experiment.NXNSSpec }:
		return fmt.Sprintf("  nxns: %+v\n", s.Spec())
	case interface{ Spec() experiment.PoisonSpec }:
		return fmt.Sprintf("  poison: %+v\n", s.Spec())
	case interface {
		Spec() experiment.TransportSpec
	}:
		return fmt.Sprintf("  transport: %+v\n", s.Spec())
	}
	return ""
}
