package experiment

// The §4 passive-measurement family, wrapped as a Scenario so the
// campaign runner (and the spec compiler) drive it through the same
// front door as every cell family. Its models are pure functions of the
// seed and do not use the cell engine: Probes and Shards are accepted and
// ignored, so campaign output stays byte-identical at any shard count by
// construction.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/passive"
)

// PassiveResult bundles the §4 production-zone models (Figures 4-5).
type PassiveResult struct {
	Nl   *passive.NlResult
	Root *passive.RootResult
}

type passiveScenario struct{}

// PassiveScenario wraps the §4 passive measurements (RunNl + RunRoot) as
// a Scenario. Probes and shards are ignored: the models are driven by
// their own calibrated populations.
func PassiveScenario() Scenario { return passiveScenario{} }

func (passiveScenario) Name() string { return "passive" }

func (passiveScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	out := &Outcome{}
	if err := ctx.Err(); err != nil {
		return out, cancelErr(err)
	}
	out.Passive = &PassiveResult{
		Nl:   passive.RunNl(passive.NlConfig{Seed: cfg.Seed}),
		Root: passive.RunRoot(passive.RootConfig{Seed: cfg.Seed}),
	}
	return out, nil
}

// ---- Renderers ----

// RenderPassive formats the §4 results (Figures 4-5) the way the
// committed paper tables print them.
func RenderPassive(r *PassiveResult) string {
	var b strings.Builder
	nl := r.Nl
	fmt.Fprintf(&b, "Figure 4: ECDF of median inter-arrival at .nl (TTL 3600)\n")
	for _, p := range nl.ECDF.Points(20) {
		fmt.Fprintf(&b, "  dt<=%7.0fs  cdf=%.3f\n", p.X, p.Y)
	}
	fmt.Fprintf(&b, "closely-timed excluded: %.1f%%  at-TTL: %.1f%%  early re-query: %.1f%%\n",
		100*nl.Analysis.ExcludedFrac, 100*nl.FracAtTTL, 100*nl.FracBelowTTL)

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
