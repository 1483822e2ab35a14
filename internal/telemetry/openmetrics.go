package telemetry

// Dependency-free OpenMetrics/Prometheus text exposition over
// metrics.Registry snapshots. The mapping is mechanical: scope "resolver"
// counter "cache_hits" becomes the counter family
// dikes_resolver_cache_hits_total and histograms expand to the
// cumulative _bucket/_sum/_count triple the format requires. Output is fully sorted (scopes, names, label keys), so two
// scrapes of the same snapshot are byte-identical.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// ContentType is the OpenMetrics media type served by the /metrics
// handler.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders snap in OpenMetrics text format. Every family
// is prefixed dikes_<scope>_ and carries labels (sorted by key) on each
// sample. The writer error, if any, is returned from the final flush
// point; the format always ends with the mandated "# EOF".
func WriteOpenMetrics(w io.Writer, snap metrics.Snapshot, labels map[string]string) error {
	lbl := renderLabels(labels)
	var b strings.Builder
	for _, sc := range snap.Scopes {
		prefix := "dikes_" + sanitizeName(sc.Name) + "_"
		for _, name := range sortedKeys(sc.Counters) {
			fam := prefix + sanitizeName(name)
			fmt.Fprintf(&b, "# TYPE %s counter\n", fam)
			fmt.Fprintf(&b, "%s_total%s %d\n", fam, lbl, sc.Counters[name])
		}
		for _, name := range sortedKeys(sc.Histograms) {
			fam := prefix + sanitizeName(name)
			h := sc.Histograms[name]
			fmt.Fprintf(&b, "# TYPE %s histogram\n", fam)
			var cum int64
			for i, bound := range h.Bounds {
				if i < len(h.Counts) {
					cum += h.Counts[i]
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", fam,
					withLabel(labels, "le", formatFloat(bound)), cum)
			}
			// The overflow bin past the last bound closes the cumulative
			// series at le="+Inf", which the format requires to equal _count.
			fmt.Fprintf(&b, "%s_bucket%s %d\n", fam,
				withLabel(labels, "le", "+Inf"), h.Count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", fam, lbl, formatFloat(h.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, lbl, h.Count)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeProgressGauges appends the live Progress gauges (when a run is
// in flight) ahead of the trailing # EOF; the caller composes the two.
func writeProgressGauges(b *strings.Builder) {
	snap, ok := currentSnapshot()
	if !ok {
		return
	}
	g := func(name string, v float64) {
		fmt.Fprintf(b, "# TYPE dikes_progress_%s gauge\n", name)
		fmt.Fprintf(b, "dikes_progress_%s %s\n", name, formatFloat(v))
	}
	g("cells_done", float64(snap.CellsDone))
	g("cells_total", float64(snap.CellsTotal))
	g("events", float64(snap.Events))
	g("events_per_second", snap.EventsPerSec)
	g("sim_horizon_seconds", snap.SimHorizon.Seconds())
	g("peak_rss_mb", float64(snap.PeakRSSMB))
	g("elapsed_seconds", snap.Elapsed.Seconds())
	g("eta_seconds", snap.ETA.Seconds())
}

// Handler serves src's snapshot (plus live Progress gauges, when a run
// is in flight) as an OpenMetrics /metrics endpoint. src may be nil for
// a progress-only endpoint.
func Handler(src func() metrics.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var snap metrics.Snapshot
		if src != nil {
			snap = src()
		}
		// Registry families first, then progress gauges, then the one
		// trailing EOF — WriteOpenMetrics owns an EOF of its own, so the
		// composition strips it and re-appends.
		var body, tmp strings.Builder
		if err := WriteOpenMetrics(&tmp, snap, nil); err == nil {
			body.WriteString(strings.TrimSuffix(tmp.String(), "# EOF\n"))
		}
		writeProgressGauges(&body)
		body.WriteString("# EOF\n")
		w.Header().Set("Content-Type", ContentType)
		io.WriteString(w, body.String())
	})
}

// sanitizeName maps an arbitrary scope/metric name into the exposition
// charset [a-zA-Z0-9_:]; every other byte becomes '_'.
func sanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue applies the exposition's label escaping: backslash,
// double quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// renderLabels renders a label set as {k="v",...} with keys sorted, or
// "" when empty.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + labelBody(labels) + "}"
}

// withLabel renders labels plus one extra pair (the histogram le).
func withLabel(labels map[string]string, k, v string) string {
	body := labelBody(labels)
	if body != "" {
		body += ","
	}
	return "{" + body + k + `="` + escapeLabelValue(v) + `"}`
}

func labelBody(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = sanitizeName(k) + `="` + escapeLabelValue(labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

// formatFloat renders a float the way the exposition wants: integral
// values without a fraction, everything else in shortest form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
