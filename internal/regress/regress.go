// Package regress compares two observability documents — run reports
// (metrics.WriteReportsJSON) or timelines (timeline JSON) — metric by
// metric, with per-metric tolerances. It is the engine behind `dikes diff` and the CI
// report-regression gate: flatten both sides to sorted key→value maps,
// diff, and report every change outside tolerance.
package regress

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/timeline"
)

// Kind is the detected document format.
type Kind string

const (
	KindReports  Kind = "reports"
	KindTimeline Kind = "timeline"
)

// Doc is one parsed document flattened to metric keys.
type Doc struct {
	Kind   Kind
	Values map[string]float64
}

// Delta is one metric's comparison verdict.
type Delta struct {
	Key      string
	Old, New float64
	// Missing marks keys present on only one side (Old or New is NaN).
	Missing bool
	// Regressed marks deltas outside tolerance.
	Regressed bool
}

// Load reads and flattens one document, auto-detecting its format.
func Load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse flattens one document, auto-detecting its format: an object
// with "reports" is a run-report bundle and one with "bins" and
// "metrics" is a timeline.
func Parse(data []byte) (*Doc, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("not a JSON object: %w", err)
	}
	switch {
	case probe["reports"] != nil:
		var d struct {
			Reports []metrics.Report `json:"reports"`
		}
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("reports document: %w", err)
		}
		return flattenReports(d.Reports), nil
	case probe["bins"] != nil && probe["metrics"] != nil:
		var d timeline.Timeline
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("timeline document: %w", err)
		}
		return flattenTimeline(d), nil
	default:
		return nil, errors.New("neither a run-report bundle nor a timeline")
	}
}

func flattenReports(reports []metrics.Report) *Doc {
	v := make(map[string]float64)
	for _, r := range reports {
		for _, sc := range r.Metrics.Scopes {
			prefix := r.Name + "." + sc.Name + "."
			for name, val := range sc.Counters {
				v[prefix+name] = float64(val)
			}
			for name, h := range sc.Histograms {
				v[prefix+name+".count"] = float64(h.Count)
				v[prefix+name+".sum"] = h.Sum
				for i, c := range h.Counts {
					v[fmt.Sprintf("%s%s.bin%02d", prefix, name, i)] = float64(c)
				}
			}
		}
		for _, inv := range r.Invariants {
			ok := 0.0
			if inv.OK {
				ok = 1.0
			}
			v[r.Name+".invariant."+inv.Name] = ok
		}
	}
	return &Doc{Kind: KindReports, Values: v}
}

func flattenTimeline(d timeline.Timeline) *Doc {
	v := make(map[string]float64)
	v["bucket_ns"] = float64(d.Bucket)
	v["bins"] = float64(len(d.Bins))
	for i, row := range d.Bins {
		for j, count := range row {
			if count == 0 {
				continue // dense zero rows would swamp the key space
			}
			name := fmt.Sprintf("m%d", j)
			if j < len(d.Metrics) {
				name = d.Metrics[j]
			}
			v[fmt.Sprintf("bin%04d.%s", i, name)] = float64(count)
		}
	}
	return &Doc{Kind: KindTimeline, Values: v}
}

// Options tunes a comparison.
type Options struct {
	// Tolerance is the allowed relative change (e.g. 0.02 = 2%) before a
	// delta counts as a regression, in either direction: the documents
	// are deterministic, so the default 0 means "identical".
	Tolerance float64
	// PerKey overrides Tolerance for keys containing the map key as a
	// substring; the longest matching pattern wins.
	PerKey map[string]float64
}

// tolFor picks the tolerance for one key.
func (o Options) tolFor(key string) float64 {
	tol, best := o.Tolerance, -1
	for pat, t := range o.PerKey {
		if strings.Contains(key, pat) && len(pat) > best {
			tol, best = t, len(pat)
		}
	}
	return tol
}

// Compare diffs old against new. The returned deltas list every changed
// or one-sided key, sorted; regressions are flagged per Options.
func Compare(oldDoc, newDoc *Doc, opts Options) []Delta {
	keys := make(map[string]bool, len(oldDoc.Values)+len(newDoc.Values))
	for k := range oldDoc.Values {
		keys[k] = true
	}
	for k := range newDoc.Values {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	var deltas []Delta
	for _, k := range sorted {
		ov, oOK := oldDoc.Values[k]
		nv, nOK := newDoc.Values[k]
		switch {
		case !oOK:
			deltas = append(deltas, Delta{Key: k, Old: math.NaN(), New: nv, Missing: true})
		case !nOK:
			deltas = append(deltas, Delta{Key: k, Old: ov, New: math.NaN(), Missing: true, Regressed: true})
		case ov != nv:
			deltas = append(deltas, Delta{Key: k, Old: ov, New: nv,
				Regressed: math.Abs(relChange(ov, nv)) > opts.tolFor(k)})
		}
	}
	return deltas
}

// relChange is (new-old)/old, with the zero-baseline edge defined as
// total change.
func relChange(ov, nv float64) float64 {
	if ov == 0 {
		if nv == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (nv - ov) / math.Abs(ov)
}

// AnyRegressed reports whether the diff contains a regression.
func AnyRegressed(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// Render prints the deltas as an aligned table; regressions are flagged
// with "REGRESSED", new keys with "new", vanished keys with "missing".
func Render(deltas []Delta) string {
	if len(deltas) == 0 {
		return "no differences\n"
	}
	var b strings.Builder
	for _, d := range deltas {
		switch {
		case d.Missing && math.IsNaN(d.New):
			fmt.Fprintf(&b, "%-60s %14g %14s  missing REGRESSED\n", d.Key, d.Old, "-")
		case d.Missing:
			fmt.Fprintf(&b, "%-60s %14s %14g  new\n", d.Key, "-", d.New)
		default:
			flag := ""
			if d.Regressed {
				flag = "  REGRESSED"
			}
			fmt.Fprintf(&b, "%-60s %14g %14g  %+.1f%%%s\n",
				d.Key, d.Old, d.New, 100*relChange(d.Old, d.New), flag)
		}
	}
	return b.String()
}
