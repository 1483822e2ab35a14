package main

// The trace subcommand analyzes a JSONL trace recorded with -trace:
//
//	dikes trace run.jsonl                  — summary (event mix, spans, latency)
//	dikes trace -probe 17 run.jsonl        — one probe's event timeline
//	dikes trace -fail run.jsonl            — explain the first failing query
//	dikes trace -validate run.jsonl        — structural checks (exit 1 on problems)
//	dikes trace -chrome out.json run.jsonl — convert to Chrome trace_event JSON
//	dikes trace -validate-chrome out.json  — check a Chrome export
//
// All modes are offline: they read the trace file and never run a
// simulation, so analysis of a million-VP run costs only the file I/O.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	dikes "repro"
	"repro/internal/stats"
)

func runTraceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	probe := fs.Int("probe", -1, "print this probe's event timeline")
	cell := fs.Int("cell", 0, "cell index for -probe (default 0)")
	failMode := fs.Bool("fail", false, "reconstruct the first failing query's full event chain")
	validate := fs.Bool("validate", false, "check trace structure; exit 1 on problems")
	chrome := fs.String("chrome", "", "write a Chrome trace_event conversion to this path")
	validateChrome := fs.String("validate-chrome", "", "validate a Chrome trace_event file (no JSONL input needed)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dikes trace [-probe N [-cell C] | -fail | -validate | -chrome OUT | -validate-chrome FILE] trace.jsonl\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if *validateChrome != "" {
		f, err := os.Open(*validateChrome)
		if err != nil {
			fatalf("%v", err)
		}
		n, err := dikes.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("chrome trace OK: %d events\n", n)
		return
	}

	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	td, err := dikes.ReadTraceJSONL(f)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *chrome != "":
		out, err := os.Create(*chrome)
		if err != nil {
			fatalf("%v", err)
		}
		if err := td.WriteChrome(out); err == nil {
			err = out.Close()
		}
		if err != nil {
			fatalf("write %s: %v", *chrome, err)
		}
		fmt.Printf("wrote %s\n", *chrome)
	case *validate:
		problems := td.Validate()
		if len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d problem(s):\n", len(problems))
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "  %s\n", p)
			}
			os.Exit(1)
		}
		fmt.Printf("trace OK: %d cells, %d events\n", len(td.Cells), td.Len())
	case *probe >= 0:
		printTimeline(td, *cell, uint16(*probe))
	case *failMode:
		explainFirstFailure(td)
	default:
		printSummary(os.Stdout, td)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dikes: trace: "+format+"\n", args...)
	os.Exit(1)
}

// printSummary renders the run-level view: the event mix, span outcomes,
// and the answered-query latency digest.
func printSummary(w io.Writer, td *dikes.TraceData) {
	dropped := uint64(0)
	for _, c := range td.Cells {
		dropped += c.Dropped
	}
	fmt.Fprintf(w, "trace: %d cells, %d events", len(td.Cells), td.Len())
	if td.SampleEvery > 1 {
		fmt.Fprintf(w, ", sampling every %d probes", td.SampleEvery)
	}
	if dropped > 0 {
		fmt.Fprintf(w, ", %d events overwritten (ring full)", dropped)
	}
	fmt.Fprintln(w)

	counts := td.TypeCounts()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nevent mix:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-16s %d\n", name, counts[name])
	}

	spans := td.Spans()
	var complete, failed, retries int
	// Answered-query latency digest over the span durations, which are
	// whole milliseconds: exact, and all zeros when nothing was answered.
	lat := stats.NewCounts()
	for _, sp := range spans {
		if !sp.Complete {
			continue
		}
		complete++
		retries += sp.Retries
		if sp.Failed() {
			failed++
			continue
		}
		lat.Observe(int64((sp.End - sp.Start) / time.Millisecond))
	}
	fmt.Fprintf(w, "\nquery spans: %d (%d complete, %d failed, %d retries)\n",
		len(spans), complete, failed, retries)
	sum := lat.Summary()
	fmt.Fprintf(w, "answered latency (ms): n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f\n",
		sum.N, sum.Mean, sum.Median, sum.P90, lat.Quantile(0.99))
}

// printTimeline dumps one probe's events in order.
func printTimeline(td *dikes.TraceData, cell int, probe uint16) {
	events := td.Timeline(cell, probe)
	if len(events) == 0 {
		fatalf("no events for probe %d in cell %d", probe, cell)
	}
	fmt.Printf("probe %d (cell %d): %d events\n", probe, cell, len(events))
	for _, ev := range events {
		fmt.Println(dikes.FormatTraceEvent(ev))
	}
}

// explainFirstFailure answers "why did probe P fail at time T": it finds
// the earliest failed query span and prints every event in its window —
// the retry chain, cache lookups, upstream queries, netsim drops, and
// the attack edges that explain them.
func explainFirstFailure(td *dikes.TraceData) {
	sp, ok := td.FirstFailure()
	kind := "failure"
	if !ok {
		// Adversary traces: a poisoned query completes "ok" (the stub
		// cannot tell), so surface the earliest hijacked span instead.
		if sp, ok = td.FirstHijack(); ok {
			kind = "hijack (spoofed answer accepted)"
		}
	}
	if !ok {
		fmt.Println("no failing or hijacked query spans in this trace")
		return
	}
	fmt.Printf("first %s: probe %d (cell %d), query %q, outcome %s after %d retries\n",
		kind, sp.Probe, sp.Cell, sp.Name, sp.Outcome, sp.Retries)
	fmt.Printf("window: %v .. %v (sim time since run start)\n\n", sp.Start, sp.End)
	for _, ev := range td.Explain(sp) {
		fmt.Println(dikes.FormatTraceEvent(ev))
	}
}
