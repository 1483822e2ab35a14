package experiment

// The §4 production-zone study. Figure 4 (§4.1) asks how soon recursives
// ask again for a record, relative to its TTL: the paper took six hours of
// A queries for ns1–ns5.dns.nl at the .nl authoritatives. Here each cell is
// the §3 caching world run for six hours at the .nl TTL, and the family
// reads the A queries for cachetest.nl's own NS hosts, the testbed's
// analogue, off the authoritative tap. Figure 5 (§4.2) stays synthesized
// by passive.RunRoot: the population validates no DNSSEC, so it never asks
// the root letters for a DS.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/passive"
	"repro/internal/recursive"
	"repro/internal/stats"
)

// The study's fixed shape: §4.1's six hours at the .nl TTL, probed as in
// §3, and §4.1's filters — a recursive counts with at least five queries,
// and gaps under ten seconds are closely timed, dropped before the median.
const (
	passiveTTL        = 3600
	passiveInterval   = 20 * time.Minute
	passiveRounds     = 18
	passiveMinQueries = 5
	passiveBurst      = 10 * time.Second
)

// PassiveResult is the §4 output: Figure 4 measured on the simulated
// population, and the synthesized Figure 5.
type PassiveResult struct {
	// InterarrivalAnalysis is Figure 4's analysis, summed over the cells.
	passive.InterarrivalAnalysis
	// ECDF is the distribution of the per-recursive medians.
	ECDF *stats.ECDF
	// FracAtTTL is the share of medians within 5% of the TTL (the paper's
	// "largest peak is at 3600 s"); FracBelowTTL is the share below that,
	// the recursives re-querying early (AC-type, the paper's 22%).
	FracAtTTL, FracBelowTTL float64
	Root                    *passive.RootResult
}

// runPassiveTestbed runs one cell and analyzes its NS-address queries.
func runPassiveTestbed(base TestbedConfig) (passive.InterarrivalAnalysis, *Testbed) {
	// With HarvestNone a resolver takes the NS addresses from the .nl
	// referral's glue and never asks cachetest.nl for them: the tap would
	// see no query to time.
	base.Population.Harvest = recursive.HarvestFull
	var events nsQueries
	base.fold = events.foldAuth
	tb := runCachingWorld(CachingConfig{TTL: passiveTTL, ProbeInterval: passiveInterval, Rounds: passiveRounds}, base)
	return passive.AnalyzeInterarrivals(events, passiveMinQueries, passiveBurst), tb
}

// nsQueries is the cell's tap fold for Figure 4: the A queries for
// cachetest.nl's own NS hosts, in arrival order.
type nsQueries []passive.QueryEvent

func (q *nsQueries) foldAuth(tb *Testbed, ev AuthEvent) {
	if ev.QType == dnswire.TypeA && tb.authKinds[ev.QName] == nsHostName {
		*q = append(*q, passive.QueryEvent{At: tb.Start.Add(ev.At), Src: string(tb.AuthSrc(ev))})
	}
}

type passiveScenario struct{}

// PassiveScenario is the §4 study as a Scenario: Figure 4 over the probes'
// resolver population (RunConfig.Population, harvest always full), Figure
// 5 from the run seed.
func PassiveScenario() Scenario { return passiveScenario{} }

func (passiveScenario) Name() string { return "passive" }

func (passiveScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	total := &PassiveResult{}
	return runCells(ctx, "passive", cfg, cellRun[passive.InterarrivalAnalysis]{
		cell: func(base TestbedConfig) (passive.InterarrivalAnalysis, *Testbed) {
			base.Population = cfg.Population
			return runPassiveTestbed(base)
		},
		fold: func(cell passive.InterarrivalAnalysis) {
			total.Medians = append(total.Medians, cell.Medians...)
			total.Considered += cell.Considered
			total.Excluded += cell.Excluded
			total.Gaps += cell.Gaps
		},
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			total.ECDF = stats.NewECDF(total.Medians)
			at, below := 0, 0
			for _, m := range total.Medians {
				if math.Abs(m-passiveTTL)/passiveTTL <= 0.05 {
					at++
				} else if m < passiveTTL*0.95 {
					below++
				}
			}
			n := float64(len(total.Medians))
			total.FracAtTTL, total.FracBelowTTL = ratio(float64(at), n), ratio(float64(below), n)
			total.Root = passive.RunRoot(cfg.Seed)
			out.Passive = total
			return nil, tapInvariants(snap, false)
		},
	})
}

// RenderPassive formats the §4 results (Figures 4-5) the way the
// committed paper tables print them.
func RenderPassive(r *PassiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: ECDF of median inter-arrival of NS-address queries at cachetest.nl (TTL %d)\n", passiveTTL)
	for _, p := range r.ECDF.Points(20) {
		fmt.Fprintf(&b, "  dt<=%7.0fs  cdf=%.3f\n", p.X, p.Y)
	}
	fmt.Fprintf(&b, "closely-timed excluded: %.1f%%  at-TTL: %.1f%%  early re-query: %.1f%%\n",
		100*r.ExcludedFrac(), 100*r.FracAtTTL, 100*r.FracBelowTTL)

	root := r.Root
	fmt.Fprintf(&b, "\nFigure 5: queries per recursive for the nl DS at the roots\n")
	fmt.Fprintf(&b, "single-query recursives: %.1f%%  heaviest source: %d queries/day\n",
		100*root.FracSingleObserved, root.MaxObserved)
	for i, e := range root.PerLetter {
		fmt.Fprintf(&b, "  letter %2d: P(n<=1)=%.3f P(n<=5)=%.3f P(n<=30)=%.3f\n",
			i, e.At(1), e.At(5), e.At(30))
	}
	return b.String()
}
