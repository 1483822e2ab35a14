package dnssec

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

var now = time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)

// detRand is a deterministic byte stream for reproducible keys in tests.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func testKey(t *testing.T, zone string) *Key {
	t.Helper()
	// Seed per zone so distinct zones get distinct keys.
	seed := int64(0)
	for _, c := range zone {
		seed = seed*131 + int64(c)
	}
	k, err := GenerateKey(zone, FlagZone, detRand{rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func rrsetA(name string, ttl uint32, ips ...string) []dnswire.RR {
	var rrs []dnswire.RR
	for _, ip := range ips {
		rrs = append(rrs, dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.A{Addr: dnswire.MustAddr(ip)}})
	}
	return rrs
}

func TestSignAndVerify(t *testing.T) {
	k := testKey(t, "example.nl.")
	rrs := rrsetA("www.example.nl.", 300, "192.0.2.80", "192.0.2.81")
	sig, err := k.Sign(rrs, now, now.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(k.Public, sig, rrs, now.Add(time.Hour)); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// RRset order must not matter (canonical ordering).
	swapped := []dnswire.RR{rrs[1], rrs[0]}
	if err := Verify(k.Public, sig, swapped, now.Add(time.Hour)); err != nil {
		t.Errorf("verify reordered: %v", err)
	}
	// Decremented TTLs (cached copies) must still verify: validation
	// uses the RRSIG's original TTL.
	aged := rrsetA("www.example.nl.", 17, "192.0.2.80", "192.0.2.81")
	if err := Verify(k.Public, sig, aged, now.Add(time.Hour)); err != nil {
		t.Errorf("verify aged TTL: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	k := testKey(t, "example.nl.")
	rrs := rrsetA("www.example.nl.", 300, "192.0.2.80")
	sig, err := k.Sign(rrs, now, now.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	forged := rrsetA("www.example.nl.", 300, "203.0.113.66")
	if err := Verify(k.Public, sig, forged, now.Add(time.Hour)); err == nil {
		t.Error("tampered RRset verified")
	}
	// Wrong key.
	k2 := testKey(t, "other.nl.")
	k2.Zone = "example.nl."
	if err := Verify(k2.Public, sig, rrs, now.Add(time.Hour)); err == nil {
		t.Error("wrong key verified")
	}
}

func TestVerifyValidityWindow(t *testing.T) {
	k := testKey(t, "example.nl.")
	rrs := rrsetA("www.example.nl.", 300, "192.0.2.80")
	sig, err := k.Sign(rrs, now, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(k.Public, sig, rrs, now.Add(2*time.Hour)); err != ErrExpired {
		t.Errorf("expired signature: %v", err)
	}
	if err := Verify(k.Public, sig, rrs, now.Add(-2*time.Hour)); err != ErrExpired {
		t.Errorf("not-yet-valid signature: %v", err)
	}
}

func TestSignRejectsOutOfZone(t *testing.T) {
	k := testKey(t, "example.nl.")
	if _, err := k.Sign(rrsetA("www.example.com.", 60, "10.0.0.1"), now, now.Add(time.Hour)); err == nil {
		t.Error("out-of-zone RRset signed")
	}
	if _, err := k.Sign(nil, now, now.Add(time.Hour)); err != ErrEmptyRRSet {
		t.Errorf("empty RRset: %v", err)
	}
}

func TestDSMatchesKey(t *testing.T) {
	k := testKey(t, "example.nl.")
	ds := k.DS(3600).Data.(dnswire.DS)
	if err := VerifyDS(ds, "example.nl.", k.Public); err != nil {
		t.Fatalf("VerifyDS: %v", err)
	}
	other := testKey(t, "other.nl.")
	if err := VerifyDS(ds, "example.nl.", other.Public); err == nil {
		t.Error("DS verified against the wrong key")
	}
	if ds.KeyTag != k.KeyTag() {
		t.Error("DS key tag mismatch")
	}
}

func TestRRSIGWireRoundTrip(t *testing.T) {
	k := testKey(t, "example.nl.")
	rrs := rrsetA("www.example.nl.", 300, "192.0.2.80")
	sig, err := k.Sign(rrs, now, now.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	m := &dnswire.Message{Header: dnswire.Header{ID: 1, Response: true}}
	m.Answers = append(m.Answers, rrs...)
	m.Answers = append(m.Answers, sig, k.DNSKEYRecord(3600))
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 3 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	// The signature still verifies after the wire round trip.
	gotSig := got.Answers[1]
	gotKey := got.Answers[2].Data.(dnswire.DNSKEY)
	if err := Verify(gotKey, gotSig, got.Answers[:1], now.Add(time.Hour)); err != nil {
		t.Fatalf("verify after round trip: %v", err)
	}
}

const signTestZone = `
$ORIGIN example.nl.
$TTL 3600
@       IN SOA ns1 hostmaster 1 7200 3600 864000 60
@       IN NS  ns1
ns1     IN A   192.0.2.1
www 300 IN AAAA 2001:db8::80
sub     IN NS  ns.sub
ns.sub  IN A   192.0.2.53
sub     IN DS  1 15 2 aabb
`

func TestSignZone(t *testing.T) {
	z, err := zone.ParseString(signTestZone, "")
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "example.nl.")
	if err := SignZone(z, k, now, 7*24*time.Hour); err != nil {
		t.Fatal(err)
	}
	// DNSKEY installed and signed.
	if got := len(z.RRSet("example.nl.", dnswire.TypeDNSKEY)); got != 1 {
		t.Fatalf("DNSKEY count = %d", got)
	}
	// Authoritative RRsets carry signatures...
	for _, c := range []struct {
		name string
		t    dnswire.Type
	}{
		{"example.nl.", dnswire.TypeSOA},
		{"example.nl.", dnswire.TypeNS},
		{"example.nl.", dnswire.TypeDNSKEY},
		{"www.example.nl.", dnswire.TypeAAAA},
		{"ns1.example.nl.", dnswire.TypeA},
		{"sub.example.nl.", dnswire.TypeDS}, // parent-side DS is signed
	} {
		sigs := z.RRSet(c.name, dnswire.TypeRRSIG)
		found := false
		for _, s := range sigs {
			if s.Data.(dnswire.RRSIG).TypeCovered == c.t {
				found = true
				rrs := z.RRSet(c.name, c.t)
				if err := Verify(k.Public, s, rrs, now); err != nil {
					t.Errorf("%s %s: %v", c.name, c.t, err)
				}
			}
		}
		if !found {
			t.Errorf("%s %s: no signature", c.name, c.t)
		}
	}
	// ...but delegation NS and glue are not signed (RFC 4035 §2.2).
	for _, sig := range z.RRSet("sub.example.nl.", dnswire.TypeRRSIG) {
		if sig.Data.(dnswire.RRSIG).TypeCovered == dnswire.TypeNS {
			t.Error("delegation NS set was signed")
		}
	}
	if sigs := z.RRSet("ns.sub.example.nl.", dnswire.TypeRRSIG); len(sigs) != 0 {
		t.Errorf("glue was signed: %v", sigs)
	}
	// Re-signing replaces rather than duplicates.
	if err := SignZone(z, k, now.Add(time.Hour), 7*24*time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := len(z.RRSet("www.example.nl.", dnswire.TypeRRSIG)); got != 1 {
		t.Errorf("re-sign left %d RRSIGs", got)
	}
}

func TestKeyTagStable(t *testing.T) {
	k := testKey(t, "example.nl.")
	if k.KeyTag() != k.Public.KeyTag() {
		t.Error("key tag mismatch between key and record")
	}
	if k.KeyTag() == 0 {
		t.Error("suspicious zero key tag")
	}
}

// BenchmarkDNSSECSignVerify measures Ed25519 RRset signing and verification.
func BenchmarkDNSSECSignVerify(b *testing.B) {
	key, err := GenerateKey("bench.nl.", FlagZone, detRand{rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	rrs := []dnswire.RR{{
		Name: "www.bench.nl.", Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sig, err := key.Sign(rrs, now, now.Add(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if err := Verify(key.Public, sig, rrs, now); err != nil {
			b.Fatal(err)
		}
	}
}
