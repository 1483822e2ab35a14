package main

// The one simulation pipeline: load specs → compile → apply the flags
// the user set → RunCampaign → RenderCampaign → export. An alias feeds
// it embedded spec paths, `dikes campaign` feeds it files:
//
//	dikes campaign examples/specs/paper        — a directory of specs
//	dikes campaign staged.json transport.json  — individual files
//
// Stdout is the consolidated cross-scenario report, byte-identical for
// any -shards/-workers value.

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	dikes "repro"
)

const specRoot = "examples/specs/"

// aliases maps a subcommand to the embedded specs it runs, under
// specRoot.
var aliases = map[string][]string{
	"caching":      {"paper/01-caching.json", "paper/02-caching-10min.json"},
	"ddos":         {"paper/03-ddos.json"},
	"glue":         {"paper/05-glue.json"},
	"adversary":    {"adversary/01-nxns.json", "adversary/02-poison.json", "adversary/03-reflect.json"},
	"transport":    {"transport.json"},
	"passive":      {"paper/06-passive.json"},
	"retries":      {"paper/07-retries.json"},
	"implications": {"paper/08-implications.json"},
	"check": {"paper/01-caching.json", "paper/02-caching-10min.json", "paper/03-ddos.json", "paper/05-glue.json",
		"paper/06-passive.json", "paper/07-retries.json", "paper/08-implications.json"},
	"timeline": {"timeline.json"},
	"ablation": {"ablation/01-stale-off.json", "ablation/02-stale-on.json", "ablation/03-prefetch-off.json", "ablation/04-prefetch-on.json",
		"ablation/05-capacity-01x.json", "ablation/06-capacity-02x.json", "ablation/07-capacity-05x.json", "ablation/08-capacity-10x.json", "ablation/09-capacity-20x.json"},
}

// allOrder is what `dikes all` runs: every paper and extension family,
// without check's second pass over the paper campaign and the timeline
// and ablation re-runs of A, B, H.
var allOrder = []string{"caching", "ddos", "glue", "adversary", "transport", "passive", "retries", "implications"}

// aliasSpecs returns the embedded spec paths of an alias subcommand, nil
// when cmd is not one.
func aliasSpecs(cmd string) []string {
	names := []string{cmd}
	if cmd == "all" {
		names = allOrder
	}
	var paths []string
	for _, name := range names {
		for _, p := range aliases[name] {
			paths = append(paths, specRoot+p)
		}
	}
	return paths
}

// specPaths resolves the argument list of `dikes campaign`: files stay
// in the order given, directories contribute every *.json under them in
// lexical walk order, so run order — and therefore report bytes — is
// stable.
func specPaths(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".json") {
				paths = append(paths, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// plan loads and compiles the spec files into campaign items and applies
// the override rule (see the command comment): only flags in o.set touch
// a compiled run. -trace is the one switch that arms tracing; the flags
// that only shape a trace are refused without it.
func (o options) plan(read func(string) ([]byte, error), paths []string) ([]dikes.CampaignItem, error) {
	for _, f := range []string{"trace-sample", "trace-chrome"} {
		if o.set[f] && o.tracePath == "" {
			return nil, fmt.Errorf("-%s does nothing without -trace <file>", f)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"probes", o.probes}, {"shards", o.shards}, {"workers", o.workers}, {"trace-sample", o.traceSample}} {
		if f.v < 0 {
			return nil, fmt.Errorf("-%s must be >= 0", f.name)
		}
	}
	var keep map[string]bool // -exp's experiments; nil keeps all
	if o.set["exp"] {
		keep = map[string]bool{}
		for _, name := range strings.Split(o.exps, ",") {
			exp, ok := dikes.SpecByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("-exp: unknown experiment %q", name)
			}
			keep[exp.Name] = true
		}
	}
	var items []dikes.CampaignItem
	for _, p := range paths {
		data, err := read(p)
		if err != nil {
			return nil, err
		}
		sp, err := dikes.ParseSpec(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if keep != nil && len(sp.Paper) > 0 {
			kept := sp.Paper[:0]
			for _, name := range sp.Paper {
				if keep[name] {
					kept = append(kept, name)
				}
			}
			if sp.Paper = kept; len(kept) == 0 {
				continue
			}
		}
		if o.bucket != 0 && sp.Observability != nil {
			sp.Observability.Bucket = dikes.SpecDuration(o.bucket) // validated with the spec
		}
		its, err := dikes.CompileSpecAll(sp, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for i := range its {
			cfg := &its[i].Config
			if o.set["probes"] {
				cfg.Probes = o.probes
			}
			if o.set["seed"] {
				cfg.Seed = o.seed
			}
			if o.set["shards"] {
				cfg.Shards = o.shards
			}
			if o.set["harvest"] && sp.Family == "ddos" {
				cfg.Population.Harvest = dikes.HarvestNone
				if o.harvest {
					cfg.Population.Harvest = dikes.HarvestFull
				}
			}
			if o.tracePath != "" {
				cfg.Trace = &dikes.TraceConfig{SampleEvery: o.traceSample}
			}
		}
		items = append(items, its...)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("-exp %s selects no run of %s", o.exps, strings.Join(paths, " "))
	}
	return items, nil
}

// run executes items as one campaign, at most -workers runs in flight.
// -progress hands every run one tracker sized over all planned cells.
func (o options) run(ctx context.Context, label string, items []dikes.CampaignItem) ([]dikes.CampaignResult, error) {
	var prog *dikes.Progress
	if o.progress {
		cells := 0
		for _, it := range items {
			per := it.Config.ShardProbes
			if per <= 0 {
				per = dikes.DefaultShardProbes
			}
			cells += (it.Config.Probes + per - 1) / per
		}
		prog = dikes.NewProgress(nil, label, cells, 0)
		for i := range items {
			items[i].Config.Progress = prog
		}
	}
	results, err := dikes.RunCampaign(ctx, items, o.workers)
	prog.Finish()
	return results, err
}

// export writes what the flags asked for — -csv figure files, one
// -trace/-trace-chrome file per traced run, the -report — and returns
// one line per failure: a failed run, a failed report invariant.
func (o options) export(results []dikes.CampaignResult) (failures []string, err error) {
	if o.csvDir != "" {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return nil, err
		}
		for _, f := range dikes.CampaignFiles(results) {
			if err := writeFile(filepath.Join(o.csvDir, f.Name), f.Write); err != nil {
				return nil, err
			}
		}
	}
	var reports []*dikes.Report
	multi := len(results) > 1 // several runs: splice each run's name into its trace path
	for _, r := range results {
		if r.Err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.Item.Name, r.Err))
		}
		if r.Outcome == nil {
			continue
		}
		if td := r.Outcome.Trace; td != nil && len(td.Cells) > 0 {
			if err := writeFile(tracePathFor(o.tracePath, r.Item.Name, multi), td.WriteJSONL); err != nil {
				return nil, err
			}
			if o.traceChrome != "" {
				if err := writeFile(tracePathFor(o.traceChrome, r.Item.Name, multi), td.WriteChrome); err != nil {
					return nil, err
				}
			}
		}
		if rep := r.Outcome.Report; rep != nil {
			reports = append(reports, rep)
			for _, inv := range rep.FailedInvariants() {
				failures = append(failures, fmt.Sprintf("%s/%s: %s", rep.Name, inv.Name, inv.Detail))
			}
		}
	}
	if o.reportPath != "" {
		err = writeFile(o.reportPath, func(w io.Writer) error { return dikes.WriteReportsJSON(w, reports) })
	}
	return failures, err
}

// scorecard is what `dikes check` adds to the paper campaign: the paper's
// values beside the campaign's readings of them, and one failure line per
// row whose source run is missing.
func scorecard(w io.Writer, results []dikes.CampaignResult) (notRun []string) {
	table, notRun := dikes.Scorecard(results)
	fmt.Fprintf(w, "---- scorecard ----\n%s", table)
	return notRun
}

// tracePathFor derives the output path of one run's trace: the
// configured path as-is for a single run, with "-<name>" spliced in
// before the extension when several run.
func tracePathFor(base, name string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + name + ext
}

// writeFile creates path, fills it through write and reports it on
// stdout.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
