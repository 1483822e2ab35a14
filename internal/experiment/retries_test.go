package experiment

import (
	"context"
	"reflect"
	"testing"
)

// TestRetriesRowsExact pins Figure 16 as this resolver produces it: per
// trial, exactly one root and one nl query per profile, one target query
// for BIND-like and three for Unbound-like (its AAAA-for-NS harvest)
// with servers up, and all 7 tries of every target fetch once they are
// down. The matrix is the same whether the trials share one cell or
// spread over four.
func TestRetriesRowsExact(t *testing.T) {
	t.Parallel()
	type means struct{ root, nl, target float64 }
	want := map[string]means{
		"bind up": {1, 1, 1}, "bind down": {1, 1, 7},
		"unbound up": {1, 2, 3}, "unbound down": {1, 2, 21},
	}
	var base []RetryRow
	for _, cfg := range []RunConfig{
		{Probes: 64, Seed: 42, Shards: 1},
		{Probes: 64, Seed: 42, Shards: 4, ShardProbes: 16},
	} {
		out, err := Run(context.Background(), RetriesScenario(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ok := map[string]bool{}
		for _, inv := range out.Report.Invariants {
			ok[inv.Name] = inv.OK
		}
		for _, name := range []string{"retries_target_is_tap", "retries_down_all_dropped"} {
			if !ok[name] {
				t.Errorf("shards %d: invariant %s missing or failed", cfg.Shards, name)
			}
		}
		if !out.Report.OK() {
			t.Errorf("shards %d: failed invariants: %v", cfg.Shards, out.Report.FailedInvariants())
		}
		rows := out.Retries.Rows
		for _, row := range rows {
			key := row.Profile + " up"
			wantAnswered := row.Trials
			if row.Down {
				key, wantAnswered = row.Profile+" down", 0
			}
			got := means{row.mean(row.Root), row.mean(row.NL), row.mean(row.Target)}
			if got != want[key] || row.Trials != 16 || row.Answered != wantAnswered {
				t.Errorf("shards %d: %s: root/nl/target %v, answered %d/%d; want %v, answered %d/16",
					cfg.Shards, key, got, row.Answered, row.Trials, want[key], wantAnswered)
			}
		}
		if base == nil {
			base = rows
		} else if !reflect.DeepEqual(base, rows) {
			t.Errorf("rows differ between cell layouts:\n%+v\n%+v", base, rows)
		}
	}
}
