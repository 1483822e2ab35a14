package dnswire

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// refValidName is ValidName as first written: canonicalize, then scan.
// The one-scan ValidName must agree with it on every name.
func refValidName(name string) error {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	wire := 1
	start := 0
	for i := 0; i < len(name); i++ {
		if name[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 {
			return ErrEmptyLabel
		}
		if l > MaxLabelLen {
			return ErrLabelTooLong
		}
		wire += 1 + l
		start = i + 1
	}
	if wire > MaxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// nameOfWire returns a canonical name whose uncompressed encoding is n
// octets (n >= 3): 63-octet labels, then one shorter label.
func nameOfWire(n int) string {
	var sb strings.Builder
	rem := n - 1 // the root terminator
	for rem > 64 {
		sb.WriteString(strings.Repeat("a", 63) + ".")
		rem -= 64
	}
	sb.WriteString(strings.Repeat("b", rem-1) + ".")
	return sb.String()
}

// rdataNames returns the domain names embedded in d.
func rdataNames(d RData) []string {
	switch v := d.(type) {
	case NS:
		return []string{v.Host}
	case CNAME:
		return []string{v.Target}
	case PTR:
		return []string{v.Target}
	case MX:
		return []string{v.Host}
	case SOA:
		return []string{v.MName, v.RName}
	case RRSIG:
		return []string{v.SignerName}
	case NSEC:
		return []string{v.NextName}
	}
	return nil
}

// messageNames returns every name m carries: questions, owners, rdata.
func messageNames(m *Message) []string {
	var names []string
	for _, q := range m.Questions {
		names = append(names, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			names = append(names, rr.Name)
			names = append(names, rdataNames(rr.Data)...)
		}
	}
	return names
}

// TestValidNameMatchesReference holds the one-scan ValidName, and
// nameLen's length, to refValidName on crafted edge names and on every
// name of the committed fuzz corpora (each input decoded, and taken raw
// as a name), each also upper-cased, without its trailing dot, with one
// added and with a leading dot.
func TestValidNameMatchesReference(t *testing.T) {
	names := []string{"", ".", "..", "...", ".a", "a..", "a", "a.", "A.B", "a..b.", "a.b..",
		"\x00.", "-.", "a b.", strings.Repeat("a", 63), strings.Repeat("a", 64),
		strings.Repeat("a", 63) + ".", strings.Repeat("a", 64) + ".", strings.Repeat("a", 64) + ".b."}
	for _, n := range []int{253, 254, 255, 256, 257} {
		names = append(names, nameOfWire(n))
	}
	for _, data := range committedCorpora(t) {
		names = append(names, string(data))
		if m, err := Unpack(data); err == nil {
			names = append(names, messageNames(m)...)
		}
	}
	checked := 0
	for _, base := range names {
		for _, n := range []string{base, strings.ToUpper(base), strings.TrimSuffix(base, "."), base + ".", "." + base} {
			want := refValidName(n)
			if got := ValidName(n); got != want {
				t.Errorf("ValidName(%q) = %v, reference %v", n, got, want)
			}
			if l, err := nameLen(n); err == nil && l != len(CanonicalName(n))+1 && CanonicalName(n) != "." {
				t.Errorf("nameLen(%q) = %d, want %d", n, l, len(CanonicalName(n))+1)
			}
			checked++
		}
	}
	for n, want := range map[int]error{254: nil, 255: nil, 256: ErrNameTooLong} {
		if err := ValidName(nameOfWire(n)); err != want {
			t.Errorf("a name of %d wire octets: %v, want %v", n, err, want)
		}
	}
	t.Logf("%d names checked", checked)
}

// checkBound asserts m's bound against Pack: the same error, or a length
// that is PackUncompressed's and at least Pack's.
func checkBound(t testing.TB, m *Message) {
	t.Helper()
	bound, berr := m.WireLenBound()
	wire, perr := m.Pack()
	if fmt.Sprint(berr) != fmt.Sprint(perr) {
		t.Fatalf("WireLenBound error %v, Pack error %v\nmessage: %+v", berr, perr, m)
	}
	if perr != nil {
		return
	}
	full, err := m.PackUncompressed()
	if err != nil {
		t.Fatal(err)
	}
	if bound != len(full) || bound < len(wire) {
		t.Fatalf("bound %d, uncompressed %d, packed %d\nmessage: %+v", bound, len(full), len(wire), m)
	}
}

// brokenNames are names Pack refuses: an empty label, an oversized
// label and an oversized name.
var brokenNames = []string{"a..b.", strings.Repeat("x", 64) + ".", nameOfWire(256)}

// withName returns d with its first embedded name (SOA: RName) set to n.
func withName(d RData, n string) (RData, bool) {
	switch v := d.(type) {
	case NS:
		v.Host = n
		return v, true
	case CNAME:
		v.Target = n
		return v, true
	case PTR:
		v.Target = n
		return v, true
	case MX:
		v.Host = n
		return v, true
	case SOA:
		v.RName = n
		return v, true
	case RRSIG:
		v.SignerName = n
		return v, true
	case NSEC:
		v.NextName = n
		return v, true
	}
	return nil, false
}

// oversized are rdata Pack refuses for length alone.
var oversized = []RData{TXT{Strings: strings.Split(strings.Repeat(strings.Repeat("t", 255)+",", 299)+"t", ",")},
	Unknown{Type: 65280, Data: make([]byte, 0x10000)}}

// mutations returns copies of m that Pack refuses: a broken name in each
// of the first few questions, and in the owner and rdata names of the
// first few records; and each of those records without data or with
// oversized rdata.
func mutations(m *Message) []*Message {
	sections := func(c *Message) [][]RR { return [][]RR{c.Answers, c.Authorities, c.Additionals} }
	var out []*Message
	clone := func() *Message {
		c := *m
		c.Questions = slices.Clone(m.Questions)
		c.Answers = slices.Clone(m.Answers)
		c.Authorities = slices.Clone(m.Authorities)
		c.Additionals = slices.Clone(m.Additionals)
		out = append(out, &c)
		return &c
	}
	for i := range min(len(m.Questions), 3) {
		for _, bad := range brokenNames {
			clone().Questions[i].Name = bad
		}
	}
	records := 0
	for s, sec := range sections(m) {
		for i := 0; i < len(sec) && records < 8; i, records = i+1, records+1 {
			rr := func() *RR { return &sections(clone())[s][i] }
			for _, bad := range brokenNames {
				rr().Name = bad
				if d, ok := withName(sec[i].Data, bad); ok {
					rr().Data = d
				}
			}
			rr().Data = nil
			for _, d := range oversized {
				rr().Data = d
			}
		}
	}
	return out
}

// TestWireLenBound holds the bound to Pack on well-formed messages (it is
// the uncompressed length) and on each way Pack refuses one.
func TestWireLenBound(t *testing.T) {
	signed := sampleMessage()
	signed.Answers = append(signed.Answers,
		RR{Name: "1414.cachetest.nl.", Class: ClassIN, TTL: 60, Data: RRSIG{TypeCovered: TypeAAAA,
			Algorithm: 15, Labels: 3, SignerName: "cachetest.nl.", Signature: make([]byte, 64)}},
		RR{Name: "1414.cachetest.nl.", Class: ClassIN, TTL: 60, Data: NSEC{NextName: "1415.cachetest.nl.",
			Types: []Type{TypeAAAA, TypeRRSIG, TypeNSEC, 1234}}},
		RR{Name: "cachetest.nl.", Class: ClassIN, TTL: 60, Data: DNSKEY{Flags: 256, Protocol: 3,
			Algorithm: 15, PublicKey: make([]byte, 32)}},
		RR{Name: "cachetest.nl.", Class: ClassIN, TTL: 60, Data: DS{KeyTag: 1, Algorithm: 15,
			DigestType: 2, Digest: make([]byte, 32)}},
		RR{Name: "1.2.0.192.in-addr.arpa.", Class: ClassIN, TTL: 60, Data: PTR{Target: "ns1.cachetest.nl."}})
	signed.AddEDNS(1232, true)
	msgs := []*Message{NewQuery(1, ".", TypeNS), sampleMessage(), signed, nxnsReferral(),
		straddlingMessage(), reRegisteringMessage()}
	refused := 0
	for _, m := range msgs {
		checkBound(t, m)
		for _, c := range mutations(m) {
			checkBound(t, c)
			if _, err := c.WireLenBound(); err == nil {
				t.Fatalf("a mutation packs: %+v", c)
			}
			refused++
		}
	}
	huge := &Message{Questions: make([]Question, 0x10000)}
	checkBound(t, huge)
	if _, err := huge.WireLenBound(); err == nil {
		t.Fatal("65 536 questions accepted")
	}
	t.Logf("%d refusals checked", refused)
}

// CheckProbe holds trace.ProbeFromMsg(m) to trace.ProbeFromWire of m
// packed. probe_test.go sets it: trace imports this package, so only the
// external test package may import trace.
var CheckProbe func(t testing.TB, m *Message)

// CommittedCorpora is committedCorpora, for the external test package.
var CommittedCorpora = committedCorpora

// FuzzWireLenBound asserts, for every message the decoder accepts and
// for copies of it with broken names, missing data or oversized rdata,
// that WireLenBound errs exactly when Pack does, with the same text, and
// otherwise bounds Pack's length from above.
//
// Each accepted message also goes through CheckProbe.
func FuzzWireLenBound(f *testing.F) {
	fuzzSeeds(f)
	addCommittedCorpora(f)
	f.Add((&Message{Header: Header{ID: 1}}).mustPack(f)) // no question
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		CheckProbe(t, m)
		checkBound(t, m)
		for _, c := range mutations(m) {
			checkBound(t, c)
		}
	})
}
