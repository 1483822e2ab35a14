package experiment

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// CSV renderers: each figure's data as comma-separated series, so the
// plots can be regenerated with any tool (`dikes -csv <dir>` writes one
// file per figure).

// LatencyCSV renders the per-round latency quantiles (Figure 9/15).
func LatencyCSV(r *DDoSResult) string {
	var sb strings.Builder
	sb.WriteString("minute,n,median_ms,mean_ms,p75_ms,p90_ms\n")
	for i, s := range r.Latency {
		fmt.Fprintf(&sb, "%.0f,%d,%.1f,%.1f,%.1f,%.1f\n",
			float64(i)*r.Spec.ProbeInterval.Minutes(), s.N, s.Median, s.Mean, s.P75, s.P90)
	}
	return sb.String()
}

// AmplificationCSV renders the Figure 11 quantile series.
func AmplificationCSV(r *DDoSResult) string {
	var sb strings.Builder
	sb.WriteString("minute,rn_median,rn_p90,rn_max,aaaa_median,aaaa_p90,aaaa_max\n")
	for i := range r.RnPerProbe {
		rn, q := r.RnPerProbe[i], r.QueriesPerProbe[i]
		fmt.Fprintf(&sb, "%.0f,%.1f,%.1f,%.0f,%.1f,%.1f,%.0f\n",
			float64(i)*r.Spec.ProbeInterval.Minutes(),
			rn.Median, rn.P90, rn.Max, q.Median, q.P90, q.Max)
	}
	return sb.String()
}

// UniqueRnCSV renders the Figure 12 series.
func UniqueRnCSV(r *DDoSResult) string {
	var sb strings.Builder
	sb.WriteString("minute,unique_rn\n")
	for i, n := range r.UniqueRn {
		fmt.Fprintf(&sb, "%.0f,%d\n", float64(i)*r.Spec.ProbeInterval.Minutes(), n)
	}
	return sb.String()
}

// ECDFCSV renders an ECDF sampled at n probabilities (Figures 4/5).
func ECDFCSV(e *stats.ECDF, n int) string {
	var sb strings.Builder
	sb.WriteString("x,cdf\n")
	for _, p := range e.Points(n) {
		fmt.Fprintf(&sb, "%.2f,%.4f\n", p.X, p.Y)
	}
	return sb.String()
}
