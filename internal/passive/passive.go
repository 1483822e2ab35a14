// Package passive holds the paper's production-zone analyses (§4). The
// §4.1 inter-arrival analysis (Figure 4) is a pure function of a query
// log: the experiment package feeds it the simulated population's queries
// at the testbed's authoritatives. Figure 5 (§4.2: queries per recursive
// for the nl DS at the root letters) is synthesized from the paper's
// behavioral mix by RunRoot, because the simulated population validates no
// DNSSEC and so never asks the roots for a DS.
package passive

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// QueryEvent is one observed query at an authoritative.
type QueryEvent struct {
	At  time.Time
	Src string
}

// InterarrivalAnalysis is the Figure 4 analysis: per source with at least
// minQueries queries, the median inter-arrival time. Closely-timed queries
// (Δt below the exclusion threshold — parallel "Happy Eyeballs"-style
// bursts, the paper's 28%) are removed from each source's series before the
// median is taken, exactly as §4.1 describes. Its counts are integers, so
// analyses of disjoint source sets add up exactly.
type InterarrivalAnalysis struct {
	// Medians are the per-recursive median Δt values, seconds, in order of
	// each source's first query.
	Medians []float64
	// Considered counts recursives meeting the minQueries threshold.
	Considered int64
	// Excluded counts the closely-timed inter-arrivals dropped, of Gaps
	// inter-arrivals of the considered recursives in all.
	Excluded, Gaps int64
}

// ExcludedFrac is the fraction of inter-arrivals dropped as closely-timed.
func (a InterarrivalAnalysis) ExcludedFrac() float64 {
	if a.Gaps == 0 {
		return 0
	}
	return float64(a.Excluded) / float64(a.Gaps)
}

// AnalyzeInterarrivals groups events per source and computes the Figure 4
// distribution.
func AnalyzeInterarrivals(events []QueryEvent, minQueries int, exclude time.Duration) InterarrivalAnalysis {
	idx := make(map[string]int)
	var bySrc [][]time.Time
	for _, ev := range events {
		i, ok := idx[ev.Src]
		if !ok {
			i = len(bySrc)
			idx[ev.Src] = i
			bySrc = append(bySrc, nil)
		}
		bySrc[i] = append(bySrc[i], ev.At)
	}
	var out InterarrivalAnalysis
	for _, times := range bySrc {
		if len(times) < minQueries {
			continue
		}
		out.Considered++
		sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
		deltas := make([]float64, 0, len(times)-1)
		for i := 1; i < len(times); i++ {
			d := times[i].Sub(times[i-1]).Seconds()
			out.Gaps++
			if d < exclude.Seconds() {
				out.Excluded++
				continue
			}
			deltas = append(deltas, d)
		}
		if len(deltas) == 0 {
			continue
		}
		out.Medians = append(out.Medians, stats.Median(deltas))
	}
	return out
}
