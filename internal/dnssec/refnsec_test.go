package dnssec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// refCoveringNSEC is the linear scan CoveringNSEC replaced: the NSEC at
// qname, else the first record over every owner that covers qname.
func refCoveringNSEC(z *zone.Zone, qname string) (dnswire.RR, bool) {
	qname = dnswire.CanonicalName(qname)
	if own := z.RRSet(qname, dnswire.TypeNSEC); len(own) > 0 {
		return own[0], true
	}
	for _, name := range z.Names() {
		for _, rr := range z.RRSet(name, dnswire.TypeNSEC) {
			if nsec, ok := rr.Data.(dnswire.NSEC); ok && nsec.Covers(rr.Name, qname) {
				return rr, true
			}
		}
	}
	return dnswire.RR{}, false
}

// TestCoveringNSECMatchesScan holds CoveringNSEC to refCoveringNSEC on
// random names in the zone, missing from it, below its zone cuts and
// outside it, on a zone without a chain, with one, after writes rebuild
// the chain, and on a clone taken before those writes.
func TestCoveringNSECMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	label := func() string { return fmt.Sprintf("%c%d", 'a'+r.Intn(6), r.Intn(40)) }
	z := zone.New("example.nl.")
	z.MustAdd(dnswire.RR{Name: "example.nl.", TTL: 3600, Data: dnswire.SOA{
		MName: "ns.example.nl.", RName: "h.example.nl.", Serial: 1, Minimum: 60}})
	add := func(n int) {
		for i := 0; i < n; i++ {
			name := label() + ".example.nl."
			if r.Intn(3) == 0 {
				name = label() + "." + name
			}
			if r.Intn(8) == 0 { // a zone cut with glue below it
				z.MustAdd(dnswire.RR{Name: name, TTL: 60, Data: dnswire.NS{Host: "ns." + name}})
				z.MustAdd(dnswire.RR{Name: "ns." + name, TTL: 60, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.1")}})
				continue
			}
			z.MustAdd(dnswire.RR{Name: name, TTL: 60, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.2")}})
		}
	}
	qnames := func() []string {
		qs := []string{"example.nl.", "nl.", ".", "a.com.", "zzz.", "example.nl.zzz."}
		names := z.Names()
		for i := 0; i < 300; i++ {
			switch i % 4 {
			case 0: // in the zone: an owner, or a name under one (a cut's too)
				n := names[r.Intn(len(names))]
				if r.Intn(2) == 0 {
					n = label() + "." + n
				}
				qs = append(qs, n)
			case 1: // missing from it
				qs = append(qs, label()+"."+label()+".example.nl.")
			case 2: // outside it
				qs = append(qs, label()+".example.org.", label()+"."+label()+".")
			default: // mixed case
				qs = append(qs, "X"+label()+".Example.NL")
			}
		}
		return qs
	}
	check := func(z *zone.Zone, stage string, wantChain bool) {
		t.Helper()
		covered := 0
		for _, q := range qnames() {
			got, ok := CoveringNSEC(z, q)
			want, wantOK := refCoveringNSEC(z, q)
			if ok != wantOK || ok && (got.Name != want.Name || !got.Data.Equal(want.Data)) {
				t.Fatalf("%s: CoveringNSEC(%q) = %v %v, scan finds %v %v", stage, q, got, ok, want, wantOK)
			}
			if ok {
				covered++
			}
		}
		if wantChain != (covered > 0) {
			t.Fatalf("%s: %d names covered, want a chain: %v", stage, covered, wantChain)
		}
	}

	add(200)
	check(z, "no chain", false)
	if err := BuildNSECChain(z); err != nil {
		t.Fatal(err)
	}
	check(z, "chain", true)
	clone := z.Clone()
	for round := 0; round < 3; round++ {
		add(50)
		names := z.Names()
		for i := 0; i < 20; i++ {
			z.Remove(names[r.Intn(len(names))], dnswire.TypeA)
		}
		if err := BuildNSECChain(z); err != nil {
			t.Fatal(err)
		}
		check(z, fmt.Sprintf("rebuilt chain %d", round), true)
	}
	check(clone, "clone", true)
}
