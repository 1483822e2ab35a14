package spec

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSpecParse feeds arbitrary bytes through the whole load path a spec
// file takes — Parse, then CompileAll — which must never panic and never
// hand back more runs than MaxRuns, whatever the sweeps say. Seeds are
// every committed spec plus the two inputs that were unbounded before the
// cap: the 200×200 repeated boolean sweep and an axis holding a long raw
// value.
func FuzzSpecParse(f *testing.F) {
	err := filepath.WalkDir("../../examples/specs", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
			return err
		}
		data, err := os.ReadFile(p)
		f.Add(data)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"version": 1, "name": "x", "family": "poison", "adversary": {"poison": {
		"random_ids": ` + sweepOfTrue(200) + `, "no_bailiwick": ` + sweepOfTrue(200) + `}}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "family": "caching",
		"workload": {"ttl": "` + strings.Repeat("sixty", 100) + `"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		items, err := CompileAll(s, "fuzz")
		if err == nil && (len(items) == 0 || len(items) > MaxRuns) {
			t.Fatalf("compiled to %d runs, want 1..%d", len(items), MaxRuns)
		}
		seen := map[string]bool{}
		for _, it := range items {
			if seen[it.Name] {
				t.Fatalf("duplicate run name %q", it.Name)
			}
			seen[it.Name] = true
		}
	})
}
