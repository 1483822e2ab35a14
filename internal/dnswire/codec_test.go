package dnswire

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	m := NewQuery(0x1234, "1414.cachetest.nl", TypeAAAA)
	resp := NewResponse(m)
	resp.Authoritative = true
	resp.Answers = append(resp.Answers, RR{
		Name: "1414.cachetest.nl.", Class: ClassIN, TTL: 60,
		Data: AAAA{Addr: MustAddr("fd0f:3897:faf7:a375:1:586::3c")},
	})
	resp.Authorities = append(resp.Authorities,
		RR{Name: "cachetest.nl.", Class: ClassIN, TTL: 3600, Data: NS{Host: "ns1.cachetest.nl."}},
		RR{Name: "cachetest.nl.", Class: ClassIN, TTL: 3600, Data: NS{Host: "ns2.cachetest.nl."}},
	)
	resp.Additionals = append(resp.Additionals,
		RR{Name: "ns1.cachetest.nl.", Class: ClassIN, TTL: 3600, Data: A{Addr: MustAddr("192.0.2.1")}},
		RR{Name: "ns2.cachetest.nl.", Class: ClassIN, TTL: 3600, Data: A{Addr: MustAddr("192.0.2.2")}},
	)
	return resp
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	for _, pack := range []func() ([]byte, error){m.Pack, m.PackUncompressed} {
		wire, err := pack()
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, m)
		}
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	compressed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.PackUncompressed()
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(raw) {
		t.Errorf("compression did not help: %d >= %d", len(compressed), len(raw))
	}
}

func TestUnpackRejectsTruncation(t *testing.T) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(wire); n++ {
		if _, err := Unpack(wire[:n]); err == nil {
			t.Errorf("Unpack accepted %d-byte prefix of %d-byte message", n, len(wire))
		}
	}
}

func TestUnpackRejectsTrailingGarbage(t *testing.T) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(append(wire, 0x00)); err != ErrTrailingGarbage {
		t.Errorf("got %v, want ErrTrailingGarbage", err)
	}
}

func TestUnpackRejectsPointerLoops(t *testing.T) {
	// Header with one question whose name is a self-pointer.
	msg := make([]byte, 12)
	msg[5] = 1                  // qdcount = 1
	msg = append(msg, 0xC0, 12) // pointer to itself
	msg = append(msg, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted self-referential compression pointer")
	}
}

func TestUnpackRejectsForwardPointer(t *testing.T) {
	msg := make([]byte, 12)
	msg[5] = 1
	msg = append(msg, 0xC0, 40) // forward pointer
	msg = append(msg, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted forward compression pointer")
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	for i := 0; i < 1<<7; i++ {
		m := &Message{Header: Header{
			ID:                 uint16(i * 523),
			Response:           i&1 != 0,
			Authoritative:      i&2 != 0,
			Truncated:          i&4 != 0,
			RecursionDesired:   i&8 != 0,
			RecursionAvailable: i&16 != 0,
			AuthenticData:      i&32 != 0,
			CheckingDisabled:   i&64 != 0,
			Opcode:             Opcode(i % 3),
			RCode:              RCode(i % 6),
		}}
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got.Header != m.Header {
			t.Fatalf("header mismatch: got %+v want %+v", got.Header, m.Header)
		}
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	rrs := []RR{
		{Name: "a.example.", Class: ClassIN, TTL: 1, Data: A{Addr: MustAddr("10.1.2.3")}},
		{Name: "a.example.", Class: ClassIN, TTL: 2, Data: AAAA{Addr: MustAddr("2001:db8::1")}},
		{Name: "example.", Class: ClassIN, TTL: 3, Data: NS{Host: "ns.example."}},
		{Name: "w.example.", Class: ClassIN, TTL: 4, Data: CNAME{Target: "a.example."}},
		{Name: "3.2.1.in-addr.arpa.", Class: ClassIN, TTL: 5, Data: PTR{Target: "a.example."}},
		{Name: "example.", Class: ClassIN, TTL: 6, Data: MX{Pref: 10, Host: "mail.example."}},
		{Name: "example.", Class: ClassIN, TTL: 7, Data: TXT{Strings: []string{"hello", "world"}}},
		{Name: "example.", Class: ClassIN, TTL: 8, Data: SOA{
			MName: "ns.example.", RName: "hostmaster.example.",
			Serial: 2018052201, Refresh: 7200, Retry: 3600, Expire: 86400, Minimum: 60,
		}},
		{Name: "nl.", Class: ClassIN, TTL: 9, Data: DS{
			KeyTag: 34112, Algorithm: 8, DigestType: 2, Digest: []byte{0xde, 0xad, 0xbe, 0xef},
		}},
		{Name: ".", Class: Class(4096), TTL: 0, Data: OPT{Options: []byte{}}},
		{Name: "example.", Class: ClassIN, TTL: 11, Data: Unknown{Type: 99, Data: []byte{1, 2, 3}}},
	}
	m := &Message{Header: Header{ID: 7, Response: true}, Answers: rrs}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(rrs) {
		t.Fatalf("got %d answers, want %d", len(got.Answers), len(rrs))
	}
	for i, rr := range got.Answers {
		if !rr.Data.Equal(rrs[i].Data) {
			t.Errorf("record %d (%s): got %v, want %v", i, rr.Type(), rr.Data, rrs[i].Data)
		}
		if rr.TTL != rrs[i].TTL {
			t.Errorf("record %d TTL: got %d, want %d", i, rr.TTL, rrs[i].TTL)
		}
	}
}

func TestRDataEqualCrossType(t *testing.T) {
	a := A{Addr: MustAddr("10.0.0.1")}
	aaaa := AAAA{Addr: MustAddr("::1")}
	if a.Equal(aaaa) || aaaa.Equal(a) {
		t.Error("cross-type RData compared equal")
	}
	ns1, ns2 := NS{Host: "NS1.Example."}, NS{Host: "ns1.example."}
	if !ns1.Equal(ns2) {
		t.Error("NS equality should be case-insensitive")
	}
}

// randomName builds a valid random domain name from a seed.
func randomName(r *rand.Rand) string {
	depth := 1 + r.Intn(4)
	name := ""
	for i := 0; i < depth; i++ {
		l := 1 + r.Intn(12)
		label := make([]byte, l)
		for j := range label {
			label[j] = byte('a' + r.Intn(26))
		}
		name += string(label) + "."
	}
	return name
}

func TestQuickQueryRoundTrip(t *testing.T) {
	f := func(id uint16, seed int64, t16 uint16) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewQuery(id, randomName(r), Type(t16))
		wire, err := q.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAnswerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{Header: Header{ID: uint16(r.Uint32()), Response: true}}
		n := r.Intn(8)
		for i := 0; i < n; i++ {
			name := randomName(r)
			var data RData
			switch r.Intn(5) {
			case 0:
				var b [4]byte
				r.Read(b[:])
				data = A{Addr: netip.AddrFrom4(b)}
			case 1:
				var b [16]byte
				r.Read(b[:])
				data = AAAA{Addr: netip.AddrFrom16(b)}
			case 2:
				data = NS{Host: randomName(r)}
			case 3:
				data = CNAME{Target: randomName(r)}
			case 4:
				data = TXT{Strings: []string{randomName(r)}}
			}
			m.Answers = append(m.Answers, RR{
				Name: name, Class: ClassIN, TTL: r.Uint32() % 1e6, Data: data,
			})
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnpackNeverPanics feeds random bytes to the parser; it must
// return an error or a message, never panic.
func TestQuickUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuestion1Empty(t *testing.T) {
	var m Message
	if q := m.Question1(); q.Name != "" || q.Type != TypeNone {
		t.Errorf("Question1 on empty message = %+v", q)
	}
}

// TestParseTypeRoundTrip: ParseType inverts String for every named type,
// including the DNSSEC ones, and is exact about the rest.
func TestParseTypeRoundTrip(t *testing.T) {
	if len(typesByName) != len(typeNames) {
		t.Fatalf("%d names for %d types", len(typesByName), len(typeNames))
	}
	for ty := range typeNames {
		if got := ParseType(ty.String()); got != ty {
			t.Errorf("ParseType(%q) = %d, want %d", ty.String(), got, ty)
		}
	}
	for _, ty := range []Type{TypeNSEC, TypeRRSIG, TypeDNSKEY} {
		if _, ok := typeNames[ty]; !ok {
			t.Errorf("type %d has no name", ty)
		}
	}
	for _, s := range []string{"", "aaaa", "TYPE28", "AAAA ", "WKS", "CNAMEX"} {
		if got := ParseType(s); got != TypeNone {
			t.Errorf("ParseType(%q) = %s, want TypeNone", s, got)
		}
	}
}

func TestMessageString(t *testing.T) {
	s := sampleMessage().String()
	for _, want := range []string{"qr", "aa", "1414.cachetest.nl.", "AAAA", "ns1.cachetest.nl."} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestEDNSHelpers(t *testing.T) {
	m := NewQuery(1, "example.nl.", TypeA)
	if _, _, ok := m.EDNS(); ok {
		t.Fatal("EDNS reported on a plain query")
	}
	m.AddEDNS(4096, true)
	size, do, ok := m.EDNS()
	if !ok || size != 4096 || !do {
		t.Fatalf("EDNS = %d/%v/%v", size, do, ok)
	}
	// AddEDNS replaces rather than duplicates.
	m.AddEDNS(1232, false)
	if got := len(m.Additionals); got != 1 {
		t.Fatalf("OPT records = %d", got)
	}
	size, do, _ = m.EDNS()
	if size != 1232 || do {
		t.Errorf("EDNS after replace = %d/%v", size, do)
	}
	// It survives the wire.
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if size, do, ok := got.EDNS(); !ok || size != 1232 || do {
		t.Errorf("EDNS after round trip = %d/%v/%v", size, do, ok)
	}
}

// TestQuickNSECBitmapRoundTrip: random type sets survive the window-block
// bitmap encoding.
func TestQuickNSECBitmapRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		seen := map[Type]bool{}
		var types []Type
		for i := 0; i < 1+r.Intn(20); i++ {
			typ := Type(r.Intn(65535) + 1)
			if !seen[typ] {
				seen[typ] = true
				types = append(types, typ)
			}
		}
		n := NSEC{NextName: randomName(r), Types: types}
		m := &Message{Header: Header{ID: 1, Response: true}}
		m.Answers = append(m.Answers, RR{Name: randomName(r), Class: ClassIN, TTL: 60, Data: n})
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return got.Answers[0].Data.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// splitCompare is the label-splitting CompareCanonical the allocation-free
// walk replaced: the reference it must agree with.
func splitCompare(a, b string) int {
	la, lb := SplitLabels(a), SplitLabels(b)
	for i := 1; ; i++ {
		switch {
		case i > len(la) && i > len(lb):
			return 0
		case i > len(la):
			return -1
		case i > len(lb):
			return 1
		}
		if c := strings.Compare(la[len(la)-i], lb[len(lb)-i]); c != 0 {
			return c
		}
	}
}

// TestCompareCanonicalMatchesSplit holds CompareCanonical to splitCompare
// on names drawn from a few short labels, so most pairs share suffixes
// and prefixes: root, empty labels, case and a missing final dot
// included. Comparing canonical names allocates nothing.
func TestCompareCanonicalMatchesSplit(t *testing.T) {
	labels := []string{"a", "b", "ab", "B", "", "z9", "\xff"}
	r := rand.New(rand.NewSource(5))
	name := func() string {
		var sb strings.Builder
		for n := r.Intn(5); n > 0; n-- {
			sb.WriteString(labels[r.Intn(len(labels))])
			sb.WriteByte('.')
		}
		if sb.Len() > 1 && r.Intn(4) == 0 {
			return strings.TrimSuffix(sb.String(), ".")
		}
		return sb.String()
	}
	for i := 0; i < 20000; i++ {
		a, b := name(), name()
		if got, want := CompareCanonical(a, b), splitCompare(a, b); got != want {
			t.Fatalf("CompareCanonical(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { CompareCanonical("x.b.example.nl.", "a.c.example.nl.") }); n != 0 {
		t.Errorf("comparing canonical names allocates %.0f objects", n)
	}
}

func TestCompareCanonicalProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomName(r), randomName(r), randomName(r)
		// Antisymmetry and reflexivity.
		if CompareCanonical(a, a) != 0 {
			return false
		}
		if CompareCanonical(a, b) != -CompareCanonical(b, a) {
			return false
		}
		// Transitivity on a sorted triple.
		names := []string{a, b, c}
		sort.Slice(names, func(i, j int) bool { return CompareCanonical(names[i], names[j]) < 0 })
		return CompareCanonical(names[0], names[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSigningInputAllocatesOnlyTheResult: NameWire, RRSIG.SignedHeader
// and DNSKEY.RDataWire, which every signature made or checked calls,
// allocate the returned slice and nothing else, so none takes a builder
// it does not give back.
func TestSigningInputAllocatesOnlyTheResult(t *testing.T) {
	sig := RRSIG{TypeCovered: TypeA, Algorithm: 13, Labels: 2, OriginalTTL: 300,
		Expiration: 2, Inception: 1, KeyTag: 7, SignerName: "example.nl.", Signature: []byte{1, 2}}
	key := DNSKEY{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: make([]byte, 64)}
	for name, f := range map[string]func() []byte{
		"NameWire":     func() []byte { return NameWire("www.example.nl.") },
		"SignedHeader": sig.SignedHeader,
		"RDataWire":    key.RDataWire,
	} {
		want := f()
		if n := testing.AllocsPerRun(100, func() { f() }); n != 1 {
			t.Errorf("%s allocates %.1f objects per call, want 1 (the result)", name, n)
		}
		if got := f(); string(got) != string(want) {
			t.Errorf("%s: %x, then %x", name, want, got)
		}
	}
	if got, want := NameWire("www.example.nl."), []byte("\x03www\x07example\x02nl\x00"); string(got) != string(want) {
		t.Errorf("NameWire = %q, want %q", got, want)
	}
	if got := sig.SignedHeader(); len(got) != 18+len("\x07example\x02nl\x00") {
		t.Errorf("SignedHeader is %d octets, want %d", len(got), 18+len("\x07example\x02nl\x00"))
	}
}
