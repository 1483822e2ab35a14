package experiment

import (
	"fmt"
	"strings"
)

// RenderTable1 prints one or more Table 1 columns side by side.
func RenderTable1(results []*CachingResult) string {
	var sb strings.Builder
	row := func(label string, get func(*CachingResult) any) {
		fmt.Fprintf(&sb, "%-18s", label)
		for _, r := range results {
			fmt.Fprintf(&sb, " %10v", get(r))
		}
		sb.WriteByte('\n')
	}
	row("TTL", func(r *CachingResult) any { return r.Table1.TTL })
	row("Probes", func(r *CachingResult) any { return r.Table1.Probes })
	row("Probes (val.)", func(r *CachingResult) any { return r.Table1.ProbesValid })
	row("Probes (disc.)", func(r *CachingResult) any { return r.Table1.ProbesDisc })
	row("VPs", func(r *CachingResult) any { return r.Table1.VPs })
	row("Queries", func(r *CachingResult) any { return r.Table1.Queries })
	row("Answers", func(r *CachingResult) any { return r.Table1.Answers })
	row("Answers (val.)", func(r *CachingResult) any { return r.Table1.AnswersValid })
	row("Answers (disc.)", func(r *CachingResult) any { return r.Table1.AnswersDisc })
	return sb.String()
}

// RenderTable2 prints the classification table for multiple runs.
func RenderTable2(results []*CachingResult) string {
	var sb strings.Builder
	row := func(label string, get func(*CachingResult) any) {
		fmt.Fprintf(&sb, "%-18s", label)
		for _, r := range results {
			fmt.Fprintf(&sb, " %10v", get(r))
		}
		sb.WriteByte('\n')
	}
	row("TTL", func(r *CachingResult) any { return r.Table1.TTL })
	row("Answers (valid)", func(r *CachingResult) any { return r.Table2.AnswersValid })
	row("1-answer VPs", func(r *CachingResult) any { return r.Table2.OneAnswerVPs })
	row("Warm-up (AAi)", func(r *CachingResult) any { return r.Table2.Warmup })
	row("TTL as zone", func(r *CachingResult) any { return r.Table2.WarmupTTLZone })
	row("TTL altered", func(r *CachingResult) any { return r.Table2.WarmupTTLAltered })
	row("AA", func(r *CachingResult) any { return r.Table2.AA })
	row("CC", func(r *CachingResult) any { return r.Table2.CC })
	row("CCdec", func(r *CachingResult) any { return r.Table2.CCdec })
	row("AC", func(r *CachingResult) any { return r.Table2.AC })
	row("AC TTL as zone", func(r *CachingResult) any { return r.Table2.ACTTLZone })
	row("AC TTL altered", func(r *CachingResult) any { return r.Table2.ACTTLAltered })
	row("CA", func(r *CachingResult) any { return r.Table2.CA })
	row("CAdec", func(r *CachingResult) any { return r.Table2.CAdec })
	row("miss rate %", func(r *CachingResult) any {
		return fmt.Sprintf("%.1f", 100*r.MissRate)
	})
	return sb.String()
}

// RenderTable3 prints the public-resolver attribution of cache misses.
func RenderTable3(results []*CachingResult) string {
	var sb strings.Builder
	row := func(label string, get func(*CachingResult) any) {
		fmt.Fprintf(&sb, "%-18s", label)
		for _, r := range results {
			fmt.Fprintf(&sb, " %10v", get(r))
		}
		sb.WriteByte('\n')
	}
	row("TTL", func(r *CachingResult) any { return r.Table1.TTL })
	row("AC answers", func(r *CachingResult) any { return r.Table3.ACAnswers })
	row("Public R1", func(r *CachingResult) any { return r.Table3.PublicR1 })
	row("Google R1", func(r *CachingResult) any { return r.Table3.GoogleR1 })
	row("other public R1", func(r *CachingResult) any { return r.Table3.OtherPublicR1 })
	row("Non-public R1", func(r *CachingResult) any { return r.Table3.NonPublicR1 })
	row("Google Rn", func(r *CachingResult) any { return r.Table3.GoogleRn })
	row("other Rn", func(r *CachingResult) any { return r.Table3.OtherRn })
	return sb.String()
}

// RenderTable4 prints the DDoS experiment matrix.
func RenderTable4(results []*DDoSResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %6s %6s %6s %7s %5s %8s %8s %8s %8s %8s\n",
		"Exp", "TTL", "start", "dur", "loss%", "NSes",
		"probes", "VPs", "queries", "answers", "valid")
	for _, r := range results {
		s := r.Spec
		dur := "end"
		if s.DDoSDur > 0 {
			dur = fmt.Sprintf("%.0f", s.DDoSDur.Minutes())
		}
		nses := authCount
		if !s.TargetsAll {
			nses = 1
		}
		fmt.Fprintf(&sb, "%-4s %6d %6.0f %6s %7.0f %5d %8d %8d %8d %8d %8d\n",
			s.Name, s.TTL, s.DDoSStart.Minutes(), dur, s.Loss*100, nses,
			r.Table4.Probes, r.Table4.VPs, r.Table4.Queries,
			r.Table4.TotalAnswers, r.Table4.ValidAnswers)
	}
	return sb.String()
}

// RenderLatency prints the per-round latency quantiles of Figure 9/15.
func RenderLatency(r *DDoSResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %8s %8s %8s %8s %8s\n",
		"minute", "n", "median", "mean", "p75", "p90")
	for i, s := range r.Latency {
		fmt.Fprintf(&sb, "%8.0f %8d %8.0f %8.0f %8.0f %8.0f\n",
			float64(i)*r.Spec.ProbeInterval.Minutes(), s.N, s.Median, s.Mean, s.P75, s.P90)
	}
	return sb.String()
}

// RenderUniqueRn prints the Figure 12 series.
func RenderUniqueRn(r *DDoSResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %10s\n", "minute", "unique-Rn")
	for i, n := range r.UniqueRn {
		fmt.Fprintf(&sb, "%8.0f %10d\n", float64(i)*r.Spec.ProbeInterval.Minutes(), n)
	}
	return sb.String()
}

// RenderAmplification prints the Figure 11 series.
func RenderAmplification(r *DDoSResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %10s %10s %10s %12s %12s %12s\n", "minute",
		"Rn-med", "Rn-p90", "Rn-max", "AAAA-med", "AAAA-p90", "AAAA-max")
	for i := range r.RnPerProbe {
		rn, q := r.RnPerProbe[i], r.QueriesPerProbe[i]
		fmt.Fprintf(&sb, "%8.0f %10.1f %10.1f %10.0f %12.1f %12.1f %12.0f\n",
			float64(i)*r.Spec.ProbeInterval.Minutes(),
			rn.Median, rn.P90, rn.Max, q.Median, q.P90, q.Max)
	}
	return sb.String()
}

// RenderTable5 prints the Appendix A TTL-trust distribution.
func RenderTable5(g *GlueResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s\n", "bucket", "NS record", "A record")
	row := func(label string, ns, a int) {
		fmt.Fprintf(&sb, "%-16s %10d %10d\n", label, ns, a)
	}
	row("Total answers", g.NS.Total, g.A.Total)
	row("TTL>3600", g.NS.AboveParent, g.A.AboveParent)
	row("TTL=3600", g.NS.ExactParent, g.A.ExactParent)
	row("60<TTL<3600", g.NS.Between, g.A.Between)
	row("TTL=60", g.NS.ExactChild, g.A.ExactChild)
	row("TTL<60", g.NS.BelowChild, g.A.BelowChild)
	fmt.Fprintf(&sb, "%-16s %9.1f%% %9.1f%%\n", "child share",
		100*g.NS.AuthoritativeShare(), 100*g.A.AuthoritativeShare())
	return sb.String()
}

// FailureRate returns the fraction of failed queries (SERVFAIL or no
// answer) in round r of a DDoS result.
func (r *DDoSResult) FailureRate(round int) float64 {
	ok := r.Answers.Get(round, ansOK)
	bad := r.Answers.Get(round, ansServFail) + r.Answers.Get(round, ansNoAnswer)
	return ratio(float64(bad), float64(ok+bad))
}
