package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestImplicationsRootVsCDN checks the paper's §8 explanation: with
// day-long TTLs and anycast letter redundancy, users of the root-like
// service barely notice the attack, while the short-TTL CDN-like service
// shows clear user-visible failures. Every report invariant holds, and
// the four cells' result is the same whether they run one or four at a
// time.
func TestImplicationsRootVsCDN(t *testing.T) {
	t.Parallel()
	var base *ImplicationsResult
	for _, cfg := range []RunConfig{
		{Probes: 200, Seed: 3, Shards: 1, ShardProbes: 50},
		{Probes: 200, Seed: 3, Shards: 4, ShardProbes: 50},
	} {
		out, err := Run(context.Background(), ImplicationsScenario(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Report.OK() {
			t.Errorf("shards %d: failed invariants: %v", cfg.Shards, out.Report.FailedInvariants())
		}
		res := out.Implications
		if base == nil {
			base = res
		} else if !reflect.DeepEqual(base, res) {
			t.Errorf("results differ between cell layouts:\n%+v\n%+v", base, res)
		}
	}
	if base.Series.Rounds() == 0 {
		t.Fatal("no data")
	}
	root, cdn := base.RootFailDuringAttack(), base.CDNFailDuringAttack()
	if root > 0.05 {
		t.Errorf("root-like failure = %.3f, want near zero (cached + surviving letters)", root)
	}
	if cdn < 0.05 {
		t.Errorf("CDN-like failure = %.3f, want clearly visible", cdn)
	}
	out := RenderImplications(base)
	if !strings.Contains(out, "root-ok") || !strings.Contains(out, "failure during the attack") {
		t.Errorf("render:\n%s", out)
	}
}

// TestImplicationsLongTTLCDNRecovers shows the paper's recommendation: the
// same CDN-like service with 30-minute TTLs fails much less.
func TestImplicationsLongTTLCDNRecovers(t *testing.T) {
	t.Parallel()
	fail := map[uint32]float64{}
	for _, ttl := range []uint32{0, 1800} { // 0: the 120 s default
		out, err := Run(context.Background(), ImplicationsScenario(), RunConfig{Probes: 200, Seed: 3, TTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		fail[ttl] = out.Implications.CDNFailDuringAttack()
	}
	t.Logf("CDN-like failure under attack: TTL 120 %.2f%%, TTL 1800 %.2f%%", 100*fail[0], 100*fail[1800])
	if fail[1800] >= fail[0] {
		t.Errorf("long TTL (%.3f) should beat short TTL (%.3f)", fail[1800], fail[0])
	}
}
