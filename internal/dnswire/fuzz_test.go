package dnswire

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzSeeds are hand-picked wire messages covering the interesting decode
// paths: a plain query, a response with every rdata family, and an EDNS
// query. The committed corpus under testdata/fuzz adds the adversarial
// inputs (truncated headers, pointer loops, dangling pointers).
func fuzzSeeds(f *testing.F) {
	q := NewQuery(0x1234, "www.example.nl.", TypeAAAA)
	wire, err := q.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)

	r := NewResponse(q)
	r.Answers = append(r.Answers,
		RR{Name: "www.example.nl.", Class: ClassIN, TTL: 3600,
			Data: CNAME{Target: "host.example.nl."}},
		RR{Name: "host.example.nl.", Class: ClassIN, TTL: 300,
			Data: AAAA{Addr: MustAddr("2001:db8::1")}})
	r.Authorities = append(r.Authorities,
		RR{Name: "example.nl.", Class: ClassIN, TTL: 86400,
			Data: SOA{MName: "ns1.example.nl.", RName: "host.example.nl.",
				Serial: 1, Refresh: 7200, Retry: 3600, Expire: 864000, Minimum: 60}},
		RR{Name: "example.nl.", Class: ClassIN, TTL: 86400,
			Data: NSEC{NextName: "www.example.nl.", Types: []Type{TypeA, TypeNS, TypeNSEC}}})
	r.Additionals = append(r.Additionals,
		RR{Name: "mail.example.nl.", Class: ClassIN, TTL: 300,
			Data: TXT{Strings: []string{"v=spf1 -all"}}},
		RR{Name: "example.nl.", Class: ClassIN, TTL: 300,
			Data: MX{Pref: 10, Host: "mail.example.nl."}})
	if wire, err = r.Pack(); err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	if wire, err = r.PackUncompressed(); err != nil {
		f.Fatal(err)
	}
	f.Add(wire)

	e := NewQuery(7, "example.nl.", TypeDNSKEY)
	e.AddEDNS(1232, true)
	if wire, err = e.Pack(); err != nil {
		f.Fatal(err)
	}
	f.Add(wire)

	// NXNS-shaped referral: a wide glueless NS set fanning one query out
	// to many fabricated out-of-zone targets, plus out-of-bailiwick glue.
	// Name compression works hard here (shared "nx.victim.nl." suffix),
	// so this seed steers the fuzzer at the pointer-chain decode paths
	// the adversary scenarios exercise.
	nx := NewResponse(NewQuery(0x0bad, "1.w20.evil.nl.", TypeAAAA))
	for j := 0; j < 20; j++ {
		nx.Authorities = append(nx.Authorities,
			RR{Name: "1.w20.evil.nl.", Class: ClassIN, TTL: 600,
				Data: NS{Host: fmt.Sprintf("ns%d.1.nx.victim.nl.", j+1)}})
	}
	nx.Additionals = append(nx.Additionals,
		RR{Name: "ns1.attacker.test.", Class: ClassIN, TTL: 600,
			Data: A{Addr: MustAddr("203.0.113.99")}})
	if wire, err = nx.Pack(); err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	if wire, err = nx.PackUncompressed(); err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
}

// FuzzUnpack asserts the decoder's liberal/conservative contract: Unpack
// never panics on arbitrary bytes, and any message it accepts either
// re-Packs into parseable wire or is refused by Pack (names with empty
// labels, oversized sections) — Pack must never emit corrupt messages.
// UnpackBorrow, twice into one Message reused across inputs as a pooled
// query is, must give Unpack's error or an equal message.
func FuzzUnpack(f *testing.F) {
	fuzzSeeds(f)
	var borrowed Message
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		for i := 0; i < 2; i++ {
			berr := UnpackBorrow(&borrowed, data)
			if fmt.Sprint(berr) != fmt.Sprint(err) {
				t.Fatalf("UnpackBorrow error %v, Unpack's %v", berr, err)
			}
			if err == nil && !messagesEquivalent(m, &borrowed) {
				t.Fatalf("UnpackBorrow decoded\n%+v\nUnpack\n%+v", &borrowed, m)
			}
		}
		if err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			return
		}
		if _, err := Unpack(wire); err != nil {
			t.Fatalf("repacked message does not parse: %v\nmessage: %+v", err, m)
		}
	})
}

// FuzzPackUnpackRoundTrip asserts that decode→encode→decode is a semantic
// fixpoint: the re-decoded message equals the first decode, and a second
// encode is byte-identical (Pack is deterministic). Equality is semantic
// (RData.Equal), not structural, because the NSEC type bitmap is a set.
func FuzzPackUnpackRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := Unpack(data)
		if err != nil {
			return
		}
		wire1, err := m1.Pack()
		if err != nil {
			return
		}
		m2, err := Unpack(wire1)
		if err != nil {
			t.Fatalf("repacked message does not parse: %v", err)
		}
		if !messagesEquivalent(m1, m2) {
			t.Fatalf("roundtrip changed the message\nbefore: %+v\nafter:  %+v", m1, m2)
		}
		wire2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second Pack failed: %v", err)
		}
		if !bytes.Equal(wire1, wire2) {
			t.Fatalf("Pack is not deterministic\nfirst:  %x\nsecond: %x", wire1, wire2)
		}
	})
}

func messagesEquivalent(a, b *Message) bool {
	if a.ID != b.ID || a.flags() != b.flags() {
		return false
	}
	if len(a.Questions) != len(b.Questions) {
		return false
	}
	for i, q := range a.Questions {
		o := b.Questions[i]
		if q.Name != o.Name || q.Type != o.Type || q.Class != o.Class {
			return false
		}
	}
	secs := [][2][]RR{
		{a.Answers, b.Answers},
		{a.Authorities, b.Authorities},
		{a.Additionals, b.Additionals},
	}
	for _, s := range secs {
		if len(s[0]) != len(s[1]) {
			return false
		}
		for i, rr := range s[0] {
			o := s[1][i]
			if rr.Name != o.Name || rr.Class != o.Class || rr.TTL != o.TTL {
				return false
			}
			if !rr.Data.Equal(o.Data) {
				return false
			}
		}
	}
	return true
}
