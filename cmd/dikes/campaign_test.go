package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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
			"engine": {"probes": 40}}`), nil
	}

	for _, flag := range []string{"trace-sample", "trace-chrome"} {
		_, err := given(options{traceSample: 4, traceChrome: "c.json"}, flag).plan(dikes.Specs.ReadFile, aliasSpecs("glue"))
		if err == nil || !strings.Contains(err.Error(), "-trace <file>") {
			t.Errorf("-%s without -trace: err = %v, want a usage error naming -trace", flag, err)
		}
	}

	dir := t.TempDir()
	o := given(options{tracePath: filepath.Join(dir, "run.jsonl"), traceSample: 4}, "trace-sample")
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
			t.Errorf("%s: %d events, sample %d; want a non-empty trace at -trace-sample 4", name, td.Len(), td.SampleEvery)
		}
	}
}

// TestScorecardFailuresExit: on the check path a row whose source run
// never ran becomes a failure line, which is what exits 1.
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
	rows := strings.Count(out.String(), "\n") - 2
	if !strings.HasPrefix(out.String(), "---- scorecard ----\n§ ") || rows < 2 {
		t.Errorf("scorecard output is not the header plus the paper table:\n%s", out.String())
	}
	// Only the glue run exists: its one row is read, every other is un-run.
	if len(failures) != rows-1 {
		t.Fatalf("%d failure lines for %d rows, want all but the glue row: %v", len(failures), rows, failures)
	}
	for _, line := range failures {
		if !strings.HasPrefix(line, "not run: ") || strings.Contains(line, "(glue)") {
			t.Errorf("failure line %q", line)
		}
	}
}

// TestReportBytesMatchBaseline is `make report-regress`'s byte gate inside
// go test: the committed ddos baseline must come out of the pipeline
// unchanged, so a refactor that moves a counter, a histogram sum or an
// invariant's wording fails tier-1.
func TestReportBytesMatchBaseline(t *testing.T) {
	want, err := os.ReadFile("../../testdata/regress/ddos_report.json")
	if err != nil {
		t.Fatal(err)
	}
	o := given(options{probes: 300, shards: 4, exps: "B,H", reportPath: filepath.Join(t.TempDir(), "report.json")},
		"probes", "shards", "exp")
	items, err := o.plan(dikes.Specs.ReadFile, aliasSpecs("ddos"))
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
	got, err := os.ReadFile(o.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("-probes 300 -shards 4 -exp B,H -report differs from testdata/regress/ddos_report.json (dikes diff names the keys)")
	}
}

// TestUnusableOverridesRejected: an override the engine cannot honour is
// a usage error, not a run of something else (a negative -probes used to
// simulate the 1200-probe default; -bucket 1ns sized the collector by
// horizon/1ns and panicked).
func TestUnusableOverridesRejected(t *testing.T) {
	for flag, o := range map[string]options{
		"probes":       {probes: -5},
		"shards":       {shards: -1},
		"workers":      {workers: -3},
		"trace-sample": {traceSample: -2, tracePath: "t.jsonl"},
	} {
		_, err := given(o, flag).plan(dikes.Specs.ReadFile, aliasSpecs("glue"))
		if err == nil || !strings.Contains(err.Error(), "-"+flag+" must be >= 0") {
			t.Errorf("negative -%s: err = %v", flag, err)
		}
	}
	for _, bucket := range []time.Duration{time.Nanosecond, -time.Minute} {
		_, err := given(options{bucket: bucket}).plan(dikes.Specs.ReadFile, aliasSpecs("timeline"))
		if err == nil || !strings.Contains(err.Error(), "observability.bucket") {
			t.Errorf("timeline -bucket %v: err = %v", bucket, err)
		}
	}
	items, err := given(options{bucket: 10 * time.Minute}).plan(dikes.Specs.ReadFile, aliasSpecs("timeline"))
	if err != nil || items[0].Config.Timeline.Bucket != 10*time.Minute {
		t.Errorf("timeline -bucket 10m: err = %v", err)
	}
}

// TestTraceSummaryIsExact: the latency line is computed from the span
// durations themselves (stats.Counts), not estimated from histogram
// bins, over answered spans only.
func TestTraceSummaryIsExact(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"v":1,"sample":0,"cells":1}` + "\n" + `{"cell":0,"events":204,"dropped":0}` + "\n")
	event := func(at time.Duration, ev string, a, id int) {
		fmt.Fprintf(&b, `{"at":%d,"ev":%q,"probe":1,"a":%d,"b":%d,"name":"1.cachetest.nl."}`+"\n", at, ev, a, id)
	}
	for i := 1; i <= 100; i++ { // answered in 1, 2, ..., 100 ms
		at := time.Duration(i) * time.Second
		event(at, "stub_issue", 28, i)
		event(at+time.Duration(i)*time.Millisecond, "stub_answer", 0, i)
	}
	event(200*time.Second, "stub_issue", 28, 200)
	event(205*time.Second, "stub_timeout", 3, 200)
	event(300*time.Second, "stub_issue", 28, 300)
	event(300*time.Second+7*time.Millisecond, "stub_answer", 2, 300) // SERVFAIL
	td, err := dikes.ReadTraceJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	printSummary(&out, td)
	for _, want := range []string{
		"query spans: 102 (102 complete, 2 failed, 0 retries)\n",
		"answered latency (ms): n=100 mean=50.5 p50=50.5 p90=90.1 p99=99.0\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	printSummary(&out, &dikes.TraceData{})
	if want := "answered latency (ms): n=0 mean=0.0 p50=0.0 p90=0.0 p99=0.0\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("empty trace summary:\n%s", out.String())
	}
}
