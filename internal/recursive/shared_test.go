package recursive

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// TestWorkingSetKeysByResolver: two resolvers on one network, same seed,
// send their first upstream query with the same sequential ID to the same
// root server, for the same client question. Each keeps its own
// in-flight query, its own job and, with the root 10 ms from one and
// 200 ms from the other, its own SRTT for it: state in the shared working
// set is keyed by resolver, not by ID, server or name alone.
func TestWorkingSetKeysByResolver(t *testing.T) {
	const bAddr = "10.0.0.54"
	w := newWorld(t, Config{Seed: 9})
	a := w.res
	b := NewResolver(w.clk, Config{Seed: 9,
		RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}})
	b.Attach(w.net, bAddr)
	if a.work() != b.work() {
		t.Fatal("two resolvers on one network have separate working sets")
	}
	w.net.SetPairDelay(resAddr, rootAddr, 10*time.Millisecond)
	w.net.SetPairDelay(bAddr, rootAddr, 200*time.Millisecond)

	answeredBy := map[netsim.Addr]int{}
	w.net.Bind(clientAddr, func(src netsim.Addr, _ []byte) { answeredBy[src]++ })
	const name = "1414.cachetest.nl."
	a.Receive(clientAddr, clientQuery(t, name, dnswire.TypeAAAA))
	b.Receive(clientAddr, clientQuery(t, name, dnswire.TypeAAAA))

	ja, jb := a.jobFor(name, dnswire.TypeAAAA), b.jobFor(name, dnswire.TypeAAAA)
	if ja == nil || jb == nil || ja == jb || ja.r != a || jb.r != b {
		t.Fatalf("jobs: a %p, b %p; want one each, owned by its resolver", ja, jb)
	}
	oa, ob := a.outqueryOf(1), b.outqueryOf(1)
	if a.inflight != 1 || b.inflight != 1 || oa == nil || ob == nil || oa == ob ||
		oa.t.r != a || ob.t.r != b {
		t.Fatalf("in flight under ID 1: a %d (%p), b %d (%p); want one each, owned by its resolver",
			a.inflight, oa, b.inflight, ob)
	}

	w.clk.RunFor(time.Minute)
	if answeredBy[resAddr] != 1 || answeredBy[bAddr] != 1 {
		t.Fatalf("answers by resolver: %v, want one from each", answeredBy)
	}
	if a.inflight != 0 || b.inflight != 0 || len(a.work().inflight) != 0 || len(a.work().coalesce) != 0 {
		t.Errorf("left behind: %d and %d in flight, %d outqueries, %d jobs",
			a.inflight, b.inflight, len(a.work().inflight), len(a.work().coalesce))
	}
	srtt := a.work().srtt
	sa, sb := srtt[ridAddr{a.rid, rootAddr}], srtt[ridAddr{b.rid, rootAddr}]
	if sa != 20*time.Millisecond || sb != 400*time.Millisecond {
		t.Errorf("root SRTT: a %v, b %v; want each its own round trip, 20ms and 400ms", sa, sb)
	}
}

// TestResolverOwnsNoMap: a resolver's per-key state lives in its working
// set's maps, so a population of idle resolvers costs no map each.
func TestResolverOwnsNoMap(t *testing.T) {
	typ := reflect.TypeOf(Resolver{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Map {
			t.Errorf("Resolver.%s is a map (%s); keep it in workingSet keyed by rid", f.Name, f.Type)
		}
	}
}

// TestProfiles: every row of the table is ready for New as it comes out,
// names are unique, and an unknown name is reported.
func TestProfiles(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range ProfileNames() {
		cfg, ok := Profile(name)
		if !ok || seen[name] {
			t.Fatalf("profile %q: found %v, seen before %v", name, ok, seen[name])
		}
		seen[name] = true
		if r := New(clock.NewVirtual(epoch), &cfg, 1); r.cfg != &cfg || cfg.MaxAttempts == 0 {
			t.Errorf("profile %q: not ready for New (%+v)", name, cfg)
		}
	}
	if _, ok := Profile("nosuch"); ok {
		t.Error(`Profile("nosuch") reported a row`)
	}
}
