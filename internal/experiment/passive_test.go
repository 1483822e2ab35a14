package experiment

import (
	"context"
	"reflect"
	"testing"
)

// TestPassiveFig4 checks Figure 4 on the cell engine: every report
// invariant holds, four cells give the same result one or four at a time,
// and the only recursives that ask for the NS addresses again before the
// TTL runs out are the ones whose cache caps TTLs at 60 s or gets flushed
// — with both switched off, every median is at least 0.95×TTL.
func TestPassiveFig4(t *testing.T) {
	t.Parallel()
	var base *PassiveResult
	for _, cfg := range []RunConfig{
		{Probes: 200, Seed: 3, Shards: 1, ShardProbes: 50},
		{Probes: 200, Seed: 3, Shards: 4, ShardProbes: 50},
	} {
		out, err := Run(context.Background(), PassiveScenario(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Report.OK() {
			t.Errorf("shards %d: failed invariants: %v", cfg.Shards, out.Report.FailedInvariants())
		}
		if base == nil {
			base = out.Passive
		} else if !reflect.DeepEqual(base, out.Passive) {
			t.Errorf("results differ between cell layouts:\n%+v\n%+v", base, out.Passive)
		}
	}
	if base.Considered == 0 || base.ECDF.Len() == 0 {
		t.Fatalf("no recursive considered: %+v", base.InterarrivalAnalysis)
	}
	t.Logf("considered %d, excluded %.1f%%, at TTL %.1f%%, early %.1f%%",
		base.Considered, 100*base.ExcludedFrac(), 100*base.FracAtTTL, 100*base.FracBelowTTL)

	// Any non-zero fraction replaces the population default.
	out, err := Run(context.Background(), PassiveScenario(), RunConfig{Probes: 200, Seed: 3,
		Population: PopulationConfig{FracCap60: 1e-9, FlushPerHour: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range out.Passive.Medians {
		if m < 0.95*passiveTTL {
			t.Errorf("median %.0f s < 0.95×TTL with no Cap60 resolver and no flush", m)
		}
	}
}
