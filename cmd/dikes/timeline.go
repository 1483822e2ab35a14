package main

// The timeline subcommand: run DDoS experiments with per-bucket
// simulated-time series collection and render them as tables, answer-rate
// sparklines, CSV, or JSON.
//
//	dikes timeline                          # experiment H, 1-minute buckets
//	dikes timeline -exp B,H -bucket 5m
//	dikes timeline -exp H -csv tl.csv -json tl.json
//
// The series is collected through the same exact-merge accumulators as
// every other output, so it is byte-identical for any -shards value.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	dikes "repro"
)

func runTimelineCmd(ctx context.Context, args []string, o options) {
	fs := flag.NewFlagSet("dikes timeline", flag.ExitOnError)
	exps := fs.String("exp", "H", "comma-separated DDoS experiments (A-I)")
	bucket := fs.Duration("bucket", time.Minute, "series bin width in simulated time")
	csvPath := fs.String("csv", "", "write the per-bucket series as CSV to this file (one per experiment; multi-exp runs insert the name)")
	jsonPath := fs.String("json", "", "write the timeline as JSON to this file (one per experiment)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dikes [global flags] timeline [-exp A,B,...] [-bucket 1m] [-csv f] [-json f]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	names := strings.Split(*exps, ",")
	header("timeline: per-bucket series over the attack event")
	var items []dikes.CampaignItem
	for _, name := range names {
		spec, ok := dikes.SpecByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "dikes: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("running experiment %s (TTL %d, %.0f%% loss) ...\n",
			spec.Name, spec.TTL, spec.Loss*100)
		cfg := o.config()
		cfg.Population = o.pop
		cfg.Timeline = &dikes.TimelineConfig{Bucket: *bucket}
		items = append(items, dikes.CampaignItem{
			Name: spec.Name, Scenario: dikes.DDoSScenario(spec), Config: cfg,
		})
	}
	for _, out := range o.run(ctx, "timeline", items) {
		spec, tl := out.DDoS.Spec, out.Timeline

		fmt.Printf("\nTimeline (exp %s): per-%s series\n%s", spec.Name, tl.Bucket, tl.Table())
		fmt.Printf("%s\n", tl.Sparkline())

		if *csvPath != "" {
			writeFileFor(*csvPath, spec.Name, len(names) > 1, []byte(tl.CSV()))
		}
		if *jsonPath != "" {
			f, err := createFileFor(*jsonPath, spec.Name, len(names) > 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
				os.Exit(1)
			}
			err = tl.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "dikes: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", f.Name())
		}
		writeCSV("timeline-exp"+spec.Name+".csv", tl.CSV())
	}
}

// pathFor inserts the experiment name before the extension when a
// multi-experiment run would otherwise overwrite one file.
func pathFor(path, exp string, multi bool) string {
	if !multi {
		return path
	}
	if i := strings.LastIndex(path, "."); i > 0 {
		return path[:i] + "-exp" + exp + path[i:]
	}
	return path + "-exp" + exp
}

func writeFileFor(path, exp string, multi bool, data []byte) {
	p := pathFor(path, exp, multi)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dikes: write %s: %v\n", p, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", p)
}

func createFileFor(path, exp string, multi bool) (*os.File, error) {
	return os.Create(pathFor(path, exp, multi))
}
