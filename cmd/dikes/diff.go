package main

// The diff subcommand: offline comparison of two observability documents
// — run reports (-report JSON) or timelines (dikes timeline -json) —
// with per-metric tolerances. Exits 1 when any metric regressed, which
// makes it a CI gate:
//
//	dikes diff old-report.json new-report.json
//	dikes diff -tol 0 -key-tol 'rtt_ms=5%' old.json new.json
//
// Both formats are deterministic, so the default tolerance is 0: any
// change in either direction regresses.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/regress"
)

func runDiffCmd(args []string) {
	var keyTols multiFlag
	fs := flag.NewFlagSet("dikes diff", flag.ExitOnError)
	tol := fs.String("tol", "0", "tolerated relative change in either direction (e.g. 2% or 0.02)")
	fs.Var(&keyTols, "key-tol", "per-metric override as substring=tolerance (repeatable, longest substring wins)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dikes diff [-tol 2%%] [-key-tol pat=tol ...] <old.json> <new.json>\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}

	opts, err := diffOptions(*tol, keyTols)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes diff: %v\n", err)
		os.Exit(2)
	}
	oldDoc, err := regress.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes diff: %s: %v\n", fs.Arg(0), err)
		os.Exit(2)
	}
	newDoc, err := regress.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dikes diff: %s: %v\n", fs.Arg(1), err)
		os.Exit(2)
	}
	if oldDoc.Kind != newDoc.Kind {
		fmt.Fprintf(os.Stderr, "dikes diff: comparing a %s document against a %s document\n",
			oldDoc.Kind, newDoc.Kind)
		os.Exit(2)
	}

	deltas := regress.Compare(oldDoc, newDoc, opts)
	fmt.Printf("dikes diff (%s): %s vs %s\n%s", oldDoc.Kind, fs.Arg(0), fs.Arg(1),
		regress.Render(deltas))
	if regress.AnyRegressed(deltas) {
		fmt.Fprintf(os.Stderr, "dikes diff: regression detected\n")
		os.Exit(1)
	}
}

// diffOptions lowers the flag strings onto regress.Options.
func diffOptions(tol string, keyTols multiFlag) (regress.Options, error) {
	opts := regress.Options{}
	t, err := parseTol(tol)
	if err != nil {
		return opts, fmt.Errorf("-tol: %v", err)
	}
	opts.Tolerance = t
	for _, kv := range keyTols {
		pat, val, ok := strings.Cut(kv, "=")
		if !ok || pat == "" {
			return opts, fmt.Errorf("-key-tol %q: want substring=tolerance", kv)
		}
		t, err := parseTol(val)
		if err != nil {
			return opts, fmt.Errorf("-key-tol %q: %v", kv, err)
		}
		if opts.PerKey == nil {
			opts.PerKey = make(map[string]float64)
		}
		opts.PerKey[pat] = t
	}
	return opts, nil
}

// parseTol accepts "2%" or "0.02".
func parseTol(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad tolerance %q", s)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("tolerance must be non-negative, got %s", s)
	}
	return v, nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
