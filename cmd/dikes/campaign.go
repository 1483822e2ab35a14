package main

// The campaign subcommand: run declarative scenario-spec files.
//
//	dikes campaign examples/specs/paper        — a directory of specs
//	dikes campaign staged.json transport.json  — individual files
//
// Each spec is loaded (strict JSON), matrix-expanded over its sweep
// axes, compiled onto the Scenario API, and the whole batch runs through
// the campaign runner with fan-out and Ctrl-C cancellation. Stdout is
// the consolidated cross-scenario report, byte-identical for any
// -shards/-workers value. Specs own their engine settings (probes, seed,
// shards); an explicit -shards flag overrides every run for shard-
// invariance checks.

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	dikes "repro"
)

// campaignErrs counts failed campaign runs; main exits non-zero when set.
var campaignErrs int

func runCampaignCmd(ctx context.Context, args []string, o options, shardsSet bool) {
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: dikes campaign <spec.json|dir> ...\n")
		os.Exit(2)
	}
	paths, err := specPaths(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
		os.Exit(2)
	}
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "dikes: no *.json spec files found in %s\n", strings.Join(args, " "))
		os.Exit(2)
	}

	var items []dikes.CampaignItem
	for _, p := range paths {
		sp, err := dikes.LoadSpec(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
			os.Exit(2)
		}
		its, err := dikes.CompileSpecAll(sp, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dikes: %s: %v\n", p, err)
			os.Exit(2)
		}
		items = append(items, its...)
	}
	if shardsSet {
		for i := range items {
			items[i].Config.Shards = o.shards
		}
	}

	header("campaign: declarative scenario specs")
	fmt.Printf("%d run(s) from %d spec file(s)\n\n", len(items), len(paths))

	// Campaign-wide telemetry counts whole runs, not cells: each finished
	// run ticks once, so -progress shows runs-done/total plus an aggregate
	// event rate and ETA across the batch.
	var prog *dikes.Progress
	if o.progress {
		prog = dikes.NewProgress(nil, "campaign", len(items), 0)
	}
	results, err := dikes.RunCampaignWithProgress(ctx, items, o.workers, prog)
	prog.Finish()
	if err != nil {
		exitCancelled(err)
	}
	for _, r := range results {
		if r.Outcome != nil && r.Outcome.Report != nil {
			collectReport(r.Outcome.Report)
		}
		if r.Err != nil {
			campaignErrs++
		}
	}
	fmt.Print(dikes.RenderCampaign(results))
	writeCSV("campaign_summary.csv", dikes.CampaignCSV(results))
}

// specPaths resolves the argument list: files stay in the order given,
// directories contribute every *.json under them in lexical walk order,
// so run order — and therefore report bytes — is stable.
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
