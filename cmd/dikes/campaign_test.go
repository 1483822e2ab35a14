package main

import (
	"context"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	dikes "repro"
)

// given builds the options a command line with these flags set would.
func given(o options, flags ...string) options {
	o.set = map[string]bool{}
	for _, f := range flags {
		o.set[f] = true
	}
	return o
}

func TestAliasesCompile(t *testing.T) {
	var concat []string
	for _, name := range allOrder {
		concat = append(concat, aliasSpecs(name)...)
	}
	if got := aliasSpecs("all"); !reflect.DeepEqual(got, concat) {
		t.Errorf("all = %v, want the concatenation of %v: %v", got, allOrder, concat)
	}
	if aliasSpecs("campaign") != nil || aliasSpecs("bogus") != nil {
		t.Error("non-alias subcommands must have no embedded specs")
	}
	embedded, _ := fs.Glob(dikes.Specs, specRoot+"ablation/*.json")
	if got := aliasSpecs("ablation"); len(got) == 0 || !reflect.DeepEqual(got, embedded) || strings.Contains(strings.Join(concat, " "), "ablation/") {
		t.Errorf("ablation = %v, want every spec under ablation/ (%v) and none of them in all", got, embedded)
	}

	// check is the paper campaign (plus its scorecard), and no part of all.
	embedded, _ = fs.Glob(dikes.Specs, specRoot+"paper/*.json")
	if got := aliasSpecs("check"); len(got) == 0 || !reflect.DeepEqual(got, embedded) {
		t.Errorf("check = %v, want every spec under paper/ in lexical order (%v)", got, embedded)
	}
	for _, name := range allOrder {
		if name == "check" {
			t.Error("check is in allOrder: all would run the paper campaign twice")
		}
	}

	names := append([]string{"all"}, allOrder...)
	for name := range aliases {
		names = append(names, name)
	}
	for _, name := range names {
		items, err := given(options{}).plan(dikes.Specs.ReadFile, aliasSpecs(name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		seen := map[string]bool{}
		for _, it := range items {
			if seen[it.Name] {
				t.Errorf("%s: duplicate run name %q", name, it.Name)
			}
			seen[it.Name] = true
		}
	}
}

func TestExpNarrowsPaperList(t *testing.T) {
	items, err := given(options{exps: "B, H"}, "exp").plan(dikes.Specs.ReadFile, aliasSpecs("ddos"))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d runs, want B and H", len(items))
	}
	for i, name := range []string{"B", "H"} {
		want, _ := dikes.SpecByName(name)
		got := items[i].Scenario.(interface{ Spec() dikes.DDoSSpec }).Spec()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d = %+v, want paper experiment %s", i, got, name)
		}
		if items[i].Config.Population.Harvest != dikes.HarvestFull || items[i].Config.Probes != 1500 {
			t.Errorf("run %d lost the spec's population/engine: %+v", i, items[i].Config)
		}
	}

	if _, err := given(options{exps: "Z"}, "exp").plan(dikes.Specs.ReadFile, aliasSpecs("ddos")); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := given(options{exps: "A"}, "exp").plan(dikes.Specs.ReadFile, aliasSpecs("timeline")); err == nil {
		t.Error("-exp that selects no run accepted")
	}
}

func TestExplicitFlagsOverrideEveryRun(t *testing.T) {
	paths := []string{specRoot + "staged.json", specRoot + "paper/01-caching.json"}
	o := options{probes: 60, seed: 7, shards: 2}

	items, err := given(o, "probes", "seed", "shards").plan(dikes.Specs.ReadFile, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if c := it.Config; c.Probes != 60 || c.Seed != 7 || c.Shards != 2 {
			t.Errorf("%s: probes/seed/shards = %d/%d/%d, want the flags' 60/7/2", it.Name, c.Probes, c.Seed, c.Shards)
		}
	}

	items, err = given(o).plan(dikes.Specs.ReadFile, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if c := it.Config; c.Probes != 1500 || c.Seed != 42 || c.Shards != 1 || c.Trace != nil {
			t.Errorf("%s: unset flags changed the spec's engine: %+v", it.Name, c)
		}
	}
}

func TestTracedBatchWritesOneFilePerRun(t *testing.T) {
	traced := func(string) ([]byte, error) {
		return []byte(`{"version": 1, "name": "tr", "family": "ddos", "paper": ["B", "H"],
			"engine": {"probes": 40, "trace": true, "trace_sample": 4}}`), nil
	}
	_, err := given(options{}).plan(traced, []string{"tr.json"})
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("spec with engine.trace and no -trace: err = %v, want a usage error naming -trace", err)
	}

	for _, flag := range []string{"trace-sample", "trace-chrome"} {
		_, err := given(options{traceSample: 4, traceChrome: "c.json"}, flag).plan(dikes.Specs.ReadFile, aliasSpecs("glue"))
		if err == nil || !strings.Contains(err.Error(), "-trace <file>") {
			t.Errorf("-%s without -trace: err = %v, want a usage error naming -trace", flag, err)
		}
	}

	dir := t.TempDir()
	o := given(options{tracePath: filepath.Join(dir, "run.jsonl")})
	items, err := o.plan(traced, []string{"tr.json"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := o.run(context.Background(), "test", items)
	if err != nil {
		t.Fatal(err)
	}
	if failures, err := o.export(results); err != nil || len(failures) > 0 {
		t.Fatalf("export: %v, failures %v", err, failures)
	}
	for _, name := range []string{"run-tr-B.jsonl", "run-tr-H.jsonl"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		td, err := dikes.ReadTraceJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if td.Len() == 0 || td.SampleEvery != 4 {
			t.Errorf("%s: %d events, sample %d; want a non-empty trace at the spec's sampling", name, td.Len(), td.SampleEvery)
		}
	}
}

// TestUntraceableRunIsNamed: -trace on a run that builds no population
// cells writes no file, and says so on stderr instead of exiting 0 in
// silence.
func TestUntraceableRunIsNamed(t *testing.T) {
	dir := t.TempDir()
	o := given(options{tracePath: filepath.Join(dir, "run.jsonl")})
	items, err := o.plan(dikes.Specs.ReadFile, aliasSpecs("retries"))
	if err != nil {
		t.Fatal(err)
	}
	results, err := o.run(context.Background(), "test", items)
	if err != nil {
		t.Fatal(err)
	}

	stderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	failures, err := o.export(results)
	os.Stderr = stderr
	w.Close()
	if err != nil || len(failures) > 0 {
		t.Fatalf("export: %v, failures %v", err, failures)
	}
	said, _ := io.ReadAll(r)
	if !strings.Contains(string(said), "-trace: retries ") {
		t.Errorf("stderr = %q, want a line naming the untraceable run", said)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("wrote %d file(s) for a run with nothing to trace", len(files))
	}
}

// TestScorecardFailuresExit: on the check path a claim that fails or whose
// source run never ran becomes a failure line, which is what exits 1.
func TestScorecardFailuresExit(t *testing.T) {
	items, err := given(options{probes: 40}, "probes").plan(dikes.Specs.ReadFile, aliasSpecs("glue"))
	if err != nil {
		t.Fatal(err)
	}
	results, err := given(options{}).run(context.Background(), "test", items)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failures := scorecard(&out, results)
	if !strings.HasPrefix(out.String(), "---- scorecard ----\nclaim ") || strings.Count(out.String(), "\n") != 13 {
		t.Errorf("scorecard output is not the header plus the 11-row table:\n%s", out.String())
	}
	// Only the glue run exists: its claim passes, the other ten are un-run.
	if len(failures) != 10 {
		t.Fatalf("%d failure lines, want 10: %v", len(failures), failures)
	}
	for _, line := range failures {
		if !strings.HasPrefix(line, "claim not reproduced: ") || !strings.Contains(line, "not run") || strings.Contains(line, "child-side TTL") {
			t.Errorf("failure line %q", line)
		}
	}
	// A run that finished but missed its band is named with what it measured.
	results[0].Outcome.Glue.NS.ExactChild, results[0].Outcome.Glue.NS.BelowChild = 0, 0
	failures = scorecard(io.Discard, results)
	if want := "claim not reproduced: answers carry the child-side TTL (measured: 0.0%)"; len(failures) != 11 || failures[9] != want {
		t.Errorf("failures = %q, want 11 with %q tenth", failures, want)
	}
}
