package dikes_test

import (
	"context"
	"strings"
	"testing"
	"time"

	dikes "repro"
)

// TestFacadeCustomWorld exercises the public API end to end the way the
// README shows: build a world from the exported engine types and resolve
// through it.
func TestFacadeCustomWorld(t *testing.T) {
	clk := dikes.NewVirtualClock(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	net := dikes.NewNetwork(clk, 1)

	z, err := dikes.ParseZoneString(`
$ORIGIN example.nl.
$TTL 300
@    IN SOA ns1 hostmaster 1 7200 3600 864000 60
@    IN NS  ns1
ns1  IN A    192.0.2.1
www  IN AAAA 2001:db8::80
`, "")
	if err != nil {
		t.Fatal(err)
	}
	dikes.NewAuthoritative(z).Attach(net, "192.0.2.1")

	r := dikes.NewResolver(clk, dikes.ResolverConfig{
		RootHints: []dikes.ServerHint{{Name: "ns1.example.nl.", Addr: "192.0.2.1"}},
	})
	r.Attach(net, "10.0.0.53")

	var got dikes.ResolveResult
	r.Resolve("www.example.nl.", dikes.TypeAAAA, 0, func(res dikes.ResolveResult) { got = res })
	clk.Run()
	if got.ServFail || len(got.Answers) != 1 {
		t.Fatalf("result = %+v", got)
	}
	if got.RCode != dikes.RCodeNoError {
		t.Errorf("rcode = %v", got.RCode)
	}

	// The attack scheduler works through the facade too.
	dikes.ScheduleAttack(clk, net, dikes.Attack{
		Targets: []dikes.Addr{"192.0.2.1"}, Loss: 1, Start: time.Second,
	})
	clk.RunFor(2 * time.Second)
	var failed dikes.ResolveResult
	r.Resolve("other.example.nl.", dikes.TypeAAAA, 0, func(res dikes.ResolveResult) { failed = res })
	clk.RunFor(time.Minute)
	if !failed.ServFail {
		t.Errorf("expected SERVFAIL under full loss, got %+v", failed)
	}
}

// TestFacadeWireHelpers checks the re-exported codec helpers.
func TestFacadeWireHelpers(t *testing.T) {
	q := dikes.NewQuery(9, "Example.NL", dikes.TypeNS)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dikes.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Question1().Name != "example.nl." {
		t.Errorf("name = %q", m.Question1().Name)
	}
	if dikes.CanonicalName("A.B.") != "a.b." {
		t.Error("CanonicalName broken")
	}
}

// TestFacadeExperimentEntryPoints smoke-tests every runner exposed on the
// facade at tiny scale.
func TestFacadeExperimentEntryPoints(t *testing.T) {
	if _, ok := dikes.SpecByName("H"); !ok {
		t.Fatal("SpecByName(H) missing")
	}
	if len(dikes.PaperExperiments) != 9 {
		t.Fatalf("PaperExperiments = %d, want 9 (A-I)", len(dikes.PaperExperiments))
	}
	caching, err := dikes.Run(context.Background(), dikes.CachingScenario(),
		dikes.RunConfig{Probes: 40, Rounds: 3, Seed: 1})
	if err != nil || caching.Caching.Table1.Queries == 0 {
		t.Errorf("CachingScenario produced nothing (err %v)", err)
	}
	glue, err := dikes.Run(context.Background(), dikes.GlueScenario(),
		dikes.RunConfig{Probes: 30, Seed: 1})
	if err != nil || glue.Glue.NS.Total == 0 {
		t.Errorf("GlueScenario produced nothing (err %v)", err)
	}
	if out := dikes.RenderTable5(glue.Glue); !strings.Contains(out, "child share") {
		t.Error("RenderTable5 broken")
	}
}
