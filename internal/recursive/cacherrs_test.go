package recursive

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
)

// TestCacheReferralAllocs: caching a one-NS referral with its glue into a
// warm shard allocates nothing. cacheRRs gathers each set in the
// resolver's scratch, and Put copies a one-record set into the node it
// already holds for the key.
func TestCacheReferralAllocs(t *testing.T) {
	r := NewResolver(clock.NewVirtual(epoch), Config{Seed: 1})
	var m dnswire.Message
	m.Response = true
	m.Authorities = append(m.Authorities, dnswire.RR{Name: "cachetest.nl.", Class: dnswire.ClassIN,
		TTL: 3600, Data: dnswire.NS{Host: "ns1.cachetest.nl."}})
	m.Additionals = append(m.Additionals, dnswire.RR{Name: "ns1.cachetest.nl.", Class: dnswire.ClassIN,
		TTL: 3600, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.1")}})
	task := &task{r: r}
	task.cacheAuthorityAndGlue(&m) // first sight: the shard's arena and table, the scratch
	if n := testing.AllocsPerRun(100, func() { task.cacheAuthorityAndGlue(&m) }); n != 0 {
		t.Errorf("caching a warm referral allocates %.1f objects, want 0", n)
	}
	ns := r.cache.Peek(cache.Key{Name: "cachetest.nl.", Type: dnswire.TypeNS}, 0)
	glue := r.cache.Peek(cache.Key{Name: "ns1.cachetest.nl.", Type: dnswire.TypeA}, 0)
	if len(ns.Records) != 1 || ns.Rank != cache.RankAuthority || len(glue.Records) != 1 || glue.Rank != cache.RankAdditional {
		t.Fatalf("cached NS %+v, glue %+v", ns, glue)
	}
}

// TestCacheRRsGroupsSets: records of one owner and type, in any order
// and any owner-name case, become one set stored at its first record's
// position; the others keep theirs.
func TestCacheRRsGroupsSets(t *testing.T) {
	r := NewResolver(clock.NewVirtual(epoch), Config{Seed: 1})
	a := func(name, addr string) dnswire.RR {
		return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.A{Addr: dnswire.MustAddr(addr)}}
	}
	rrs := []dnswire.RR{a("x.nl.", "192.0.2.1"), a("y.nl.", "192.0.2.2"), a("X.NL", "192.0.2.3"),
		{Name: "x.nl.", Class: dnswire.ClassIN, TTL: 60, Data: dnswire.NS{Host: "ns.x.nl."}}, a("x.nl.", "192.0.2.4")}
	(&task{r: r}).cacheRRs(rrs, cache.RankAnswer)
	for _, tc := range []struct {
		key  cache.Key
		want int
	}{{cache.Key{Name: "x.nl.", Type: dnswire.TypeA}, 3}, {cache.Key{Name: "y.nl.", Type: dnswire.TypeA}, 1},
		{cache.Key{Name: "x.nl.", Type: dnswire.TypeNS}, 1}} {
		if v := r.cache.Peek(tc.key, 0); len(v.Records) != tc.want {
			t.Errorf("%v: %d records, want %d", tc.key, len(v.Records), tc.want)
		}
	}
	var names []string
	for _, rr := range r.cache.Dump(0) {
		names = append(names, rr.Name+" "+rr.Type().String())
	}
	// Dump lists most recent first: the Puts went x/A, y/A, x/NS.
	if got, want := len(names), 5; got != want || names[0] != "x.nl. NS" || names[1] != "y.nl. A" {
		t.Errorf("Dump = %v", names)
	}
}
