package zone

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// FuzzMasterFile asserts that the master-file parser never panics and that
// Marshal's claim holds on everything the parser accepts: the output
// re-parses into a zone with the same origin, the same owner names, and
// the same number of records. (Record contents are not compared byte for
// byte — TXT strings are re-escaped on output — but names and shape must
// survive.)
func FuzzMasterFile(f *testing.F) {
	f.Add(`$ORIGIN example.nl.
$TTL 3600
@ IN SOA ns1.example.nl. host.example.nl. 1 7200 3600 864000 60
@ IN NS ns1
ns1 IN A 192.0.2.1
www 300 IN AAAA 2001:db8::1
alias IN CNAME www
@ IN MX 10 mail.example.nl.
@ IN TXT "v=spf1 -all" "second string"
sub 3600 IN NS ns1.sub
ns1.sub IN A 192.0.2.53
`)
	f.Add("$ORIGIN test.\n@ 60 IN SOA ns. h. 1 2 3 4 5\n@ IN NS ns.\n")
	f.Add("www IN A 192.0.2.1\n")
	f.Add("$TTL abc\n")
	f.Add("@ IN TXT \"unterminated\n")
	f.Add("a ( b\n c ) IN A 192.0.2.1\n")
	f.Add("t 60 IN TXT \"v=spf1; -all\" \"c(d\" \"e)f\" \"g\\\"h;\" ; comment\n")
	f.Add("$ORIGIN x\"y.\nw 60 IN TXT \"a;b\"\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseString(text, "example.nl.")
		if err != nil {
			return
		}
		out := z.MarshalString()
		z2, err := ParseString(out, "")
		if err != nil {
			t.Fatalf("marshaled zone does not re-parse: %v\n%s", err, out)
		}
		if z2.Origin() != z.Origin() {
			t.Fatalf("origin changed: %q -> %q", z.Origin(), z2.Origin())
		}
		if z2.Len() != z.Len() {
			t.Fatalf("record count changed: %d -> %d\n%s", z.Len(), z2.Len(), out)
		}
		n1, n2 := z.Names(), z2.Names()
		sort.Strings(n1)
		sort.Strings(n2)
		if strings.Join(n1, "\n") != strings.Join(n2, "\n") {
			t.Fatalf("owner names changed:\nbefore: %v\nafter:  %v\n%s", n1, n2, out)
		}
	})
}

// FuzzParseMatchesReference holds Parse to the reference parser in
// reference_test.go, the straightforward one it replaced: on every input
// both accept or both reject with the same error text (line number
// included), and accepted zones marshal to the same bytes and hold the
// same number of records.
func FuzzParseMatchesReference(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN x.\n$TTL 60\nwww\u00a0IN\u2003A 10.0.0.1\n\u00a0\n\u3000 IN A 10.0.0.2\n\u00a0\tIN A 10.0.0.3\n")
	f.Add("$ORIGIN x.\r\n$TTL 60\r\n@ IN A 10.0.0.1\r\n\r\n")
	f.Add("$ORIGIN x.\n$TTL 120\nhost 60 IN A 10.0.0.1\n\tIN A 10.0.0.2\n  300 AAAA ::1\n")
	f.Add("$ORIGIN .\n$TTL 1h\n. IN SOA a. b. 1 2 3 4 5\nnl. 172800 IN NS ns1.nl.\nns1.nl. IN A 192.0.2.1\n")
	f.Add("$origin X.\n$ttl 1D\nWWW 60 in aaaa ::1\nMail Mx 10 MX\nw2 In CnAmE WWW\n")
	f.Add("$ORIGIN x.\n@ 60 IN SOA a b ( 1 2\n 3 ; c\n 4 5 )\n@ 60 IN TXT \"a;b\" ( \"c)\"\n \"d(\" )\n")
	f.Add("$ORIGIN x.\n@ 2147483647 IN A 10.0.0.1\n@ 2147483648 IN A 10.0.0.2\n")
	f.Add("$TTL 18446744073709551617s\n")
	f.Add("$ORIGIN x.\n@ 60 IN A 10.0.0.1 )\n")
	f.Add("$ORIGIN x.\n@ 60 IN TXT \"a\\\"; b\" \"c\\\\\" ; d\n")
	f.Add("$ORIGIN x.\n@ 60 IN NS a\"b\n")
	f.Add("$ORIGIN x.\n@\v60\fIN\rA 10.0.0.1\n")
	f.Add("$ORIGIN x.\n@ 0 IN A 10.0.0.1\nw 0060 IN A 10.0.0.2\n")
	f.Add("$ORIGIN x.\nwww.y. 60 IN A 10.0.0.1\n")
	// What the one-pass reader does itself: line ends, bufio.Scanner's
	// line limit, owner names built in a buffer, the map's size hint.
	f.Add("$ORIGIN x.\r\n$TTL 60\r\nw\rIN A 10.0.0.1\r\n\tIN AAAA ::1\r\n\r\n\r\nv IN A 10.0.0.2 ;c\r\n\r")
	f.Add("$ORIGIN x.\n$TTL 60\n@ IN A 10.0.0.1\nw IN TXT \"no newline\"")
	f.Add("$ORIGIN x.\n@ 60 IN A 10.0.0.1 ) " + strings.Repeat("a", 70000) + "\n")
	f.Add("$ORIGIN x.\n@ 60 IN TXT " + strings.Repeat("b", maxLine-13) + "\n@ 60 IN TXT " + strings.Repeat("c", maxLine-13))
	f.Add("$ORIGIN x.\n@ 60 IN TXT " + strings.Repeat("d", maxLine-12))
	f.Add("$ORIGIN x.\n$TTL 60\na IN A 10.0.0.1\nb IN A 10.0.0.2\na IN AAAA ::1\nb IN A 10.0.0.2\nA IN A 10.0.0.3\n")
	f.Add("$ORIGIN x.\n$TTL 60\nwww IN A 10.0.0.1\n$ORIGIN y.x.\nwww IN A 10.0.0.2\n$ORIGIN x.\nwww IN AAAA ::1\n")
	f.Add("$ORIGIN X.\n$TTL 60\nWww IN A 10.0.0.1\nwWW IN AAAA ::1\nMiX.x. IN A 10.0.0.2\n@ IN NS Ns.X.\nm IN MX 1 WWW\n")
	f.Add("$ORIGIN x.\n$TTL 60\nt IN TXT ( \"a;b\"\n  \"c)d\" ; e )\n  \"(f\\\"\" )\nu IN TXT \"g\\\\\" (\n \"h\" )\n")
	f.Add("$ORIGIN x.\n$TTL 60\nw\u00a0IN A 10.0.0.1\nw\u2028IN\u3000AAAA ::1\nv 60 \u0131n \u017foa a b 1 2 3 4 5\nu IN TXT a\xffb\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseString(text, "example.nl.")
		ref, refErr := refParseString(text, "example.nl.")
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Parse: %v\nreference: %v", err, refErr)
		}
		if zr, errR := Parse(strings.NewReader(text), "example.nl."); fmt.Sprint(errR) != fmt.Sprint(err) ||
			err == nil && zr.MarshalString() != z.MarshalString() {
			t.Fatalf("Parse of a reader: %v; of the string: %v", errR, err)
		}
		if err != nil {
			return
		}
		if got, want := z.MarshalString(), ref.MarshalString(); got != want {
			t.Fatalf("Parse marshals to\n%s\nthe reference to\n%s", got, want)
		}
		if z.Len() != ref.Len() {
			t.Fatalf("Parse holds %d records, the reference %d", z.Len(), ref.Len())
		}
	})
}

// The zone FuzzZoneMatchesReference builds: an apex, leaves, the empty
// non-terminal x.a.ex. (and a.ex. while it owns nothing) once y.x.a.ex.
// holds data, wildcards
// (one below another wildcard), a delegation d.ex. with glue below the
// cut, and one name out of zone. Queries add names that never exist.
var (
	fuzzOwners = []string{"ex.", "a.ex.", "b.ex.", "y.x.a.ex.", "*.ex.", "*.w.ex.", "q.*.w.ex.",
		"d.ex.", "ns.d.ex.", "h.d.ex.", "w.ex.", "B.Ex", "other."}
	fuzzQueries = append(fuzzOwners[:len(fuzzOwners):len(fuzzOwners)],
		"x.a.ex.", "z.ex.", "z.x.a.ex.", "p.w.ex.", "p.q.w.ex.", "z.d.ex.", "a.b.c.ex.", "ex", ".")
	fuzzTypes = []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME,
		dnswire.TypeDS, dnswire.TypeMX, dnswire.TypeSOA}
)

// fuzzData returns variant v (0–2) of type t's data. NS hosts sit below
// the cut (in-bailiwick glue), elsewhere in the zone (out of bailiwick)
// and out of zone.
func fuzzData(t dnswire.Type, v int) dnswire.RData {
	hosts := [3]string{"ns.d.ex.", "a.ex.", "ns.other."}
	switch t {
	case dnswire.TypeA:
		return dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(v)})}
	case dnswire.TypeAAAA:
		return dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(v)})}
	case dnswire.TypeNS:
		return dnswire.NS{Host: hosts[v]}
	case dnswire.TypeCNAME:
		return dnswire.CNAME{Target: [3]string{"a.ex.", "b.ex.", "t.other."}[v]}
	case dnswire.TypeDS:
		return dnswire.DS{KeyTag: uint16(v), Algorithm: 8, DigestType: 2, Digest: []byte{1, byte(v)}}
	case dnswire.TypeMX:
		return dnswire.MX{Pref: uint16(10 * v), Host: hosts[v]}
	}
	return dnswire.SOA{MName: hosts[v], RName: "h.ex.", Serial: uint32(v), Minimum: 60}
}

// zoneReader is what FuzzZoneMatchesReference compares of a Zone and a
// refZone.
type zoneReader interface {
	Lookup(name string, qtype dnswire.Type) Result
	RRSet(name string, t dnswire.Type) []dnswire.RR
	Names() []string
	Len() int
	MarshalString() string
}

// zoneView is everything a reader can observe of a zone over the fuzz
// alphabet: Lookup and RRSet of every query name × type, in that order,
// then Len, Names and the master file.
type zoneView struct {
	lookups []Result
	sets    [][]dnswire.RR
	n       int
	names   []string
	text    string
}

func observe(z zoneReader) zoneView {
	var v zoneView
	for _, q := range fuzzQueries {
		for _, t := range fuzzTypes {
			v.lookups = append(v.lookups, z.Lookup(q, t))
			v.sets = append(v.sets, z.RRSet(q, t))
		}
	}
	v.n, v.names, v.text = z.Len(), z.Names(), z.MarshalString()
	return v
}

// diff describes the first difference between two views, or returns "".
func (v zoneView) diff(want zoneView) string {
	for i := range v.lookups {
		q, t := fuzzQueries[i/len(fuzzTypes)], fuzzTypes[i%len(fuzzTypes)]
		if !reflect.DeepEqual(v.lookups[i], want.lookups[i]) {
			return fmt.Sprintf("Lookup(%s, %s) = %+v, want %+v", q, t, v.lookups[i], want.lookups[i])
		}
		if !reflect.DeepEqual(v.sets[i], want.sets[i]) {
			return fmt.Sprintf("RRSet(%s, %s) = %v, want %v", q, t, v.sets[i], want.sets[i])
		}
	}
	switch {
	case v.n != want.n:
		return fmt.Sprintf("Len() = %d, want %d", v.n, want.n)
	case !reflect.DeepEqual(v.names, want.names):
		return fmt.Sprintf("Names() = %q, want %q", v.names, want.names)
	case v.text != want.text:
		return fmt.Sprintf("Marshal:\n%s\nwant:\n%s", v.text, want.text)
	}
	return ""
}

// zoneOps reads a fuzz input one byte at a time, 0 once it runs out.
type zoneOps []byte

func (b *zoneOps) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzZoneMatchesReference drives Zone and the two-map refZone with the
// same operations — Add (duplicates, TTL unification, rejected names),
// Replace (same size, resized, emptied, with duplicate data), Remove,
// BumpSerial, and Clone with either side mutated afterwards — and after
// every one requires the same Lookup, RRSet, Len, Names and Marshal
// output. The side a Clone leaves behind must then never change: Zone's
// clones share nothing a mutation can reach.
//
// An operation is four bytes: op, owner, type, argument. The argument's
// low two bits are an Add's variant or a Replace's datum count, bit 2 the
// TTL (60 or 300), and a Replace's data take variants from the bits above.
func FuzzZoneMatchesReference(f *testing.F) {
	const add, replace, remove, bump, clone = 0, 2, 3, 4, 5
	// A wildcard CNAME and a wildcard below another wildcard.
	f.Add([]byte{add, 5, 3, 0, add, 6, 1, 1, add, 0, 6, 0, add, 4, 0, 2})
	// A delegation with glue below the cut, out of bailiwick and out of
	// zone, DS at the cut; then the in-bailiwick host is removed.
	f.Add([]byte{add, 0, 6, 1, add, 7, 2, 0, add, 7, 2, 1, add, 7, 2, 2, add, 8, 0, 1, add, 8, 1, 2,
		add, 1, 0, 0, add, 7, 4, 1, add, 9, 0, 0, remove, 8, 0, 0, remove, 8, 1, 0})
	// An apex without data exists while a.ex. does.
	f.Add([]byte{add, 1, 0, 0, remove, 1, 0, 0})
	// Empty non-terminals appear and go: y.x.a.ex. holds data, then none.
	f.Add([]byte{add, 0, 6, 0, add, 3, 0, 1, add, 3, 0, 5, add, 3, 1, 0, remove, 3, 0, 0,
		replace, 3, 1, 0, add, 1, 0, 2, remove, 1, 0, 0})
	// Replace in place, grown, with a duplicate, shrunk and emptied, on the
	// apex's overflow and inline; SOA serial bumps.
	f.Add([]byte{add, 0, 6, 1, add, 0, 2, 0, add, 0, 2, 1, replace, 0, 2, 2 | 8, replace, 0, 2, 3 | 4 | 8,
		replace, 0, 2, 2, replace, 0, 6, 1 | 16, bump, 0, 0, 0, replace, 0, 2, 0, bump, 0, 0, 0,
		add, 2, 1, 4, add, 2, 1, 1, replace, 2, 1, 1})
	// A clone rewrites the apex's overflow in place: NS 1, NS 0 for NS 0,
	// NS 1.
	f.Add([]byte{add, 0, 6, 1, add, 0, 2, 0, add, 0, 2, 1, clone, 0, 0, 1, replace, 0, 2, 2 | 8 | 16 | 32})
	// Clone, mutate the clone; clone again, mutate the source.
	f.Add([]byte{add, 0, 6, 1, add, 1, 0, 0, add, 2, 3, 0, clone, 1, 0, 0, add, 1, 0, 1, remove, 2, 3, 0,
		bump, 0, 0, 0, clone, 0, 0, 0, replace, 1, 0, 1, add, 10, 1, 2, bump, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := zoneOps(data)
		z, r := New("ex."), newRefZone("ex.")
		type frozen struct {
			z    *Zone
			want zoneView
		}
		var kept []frozen
		for step := 0; len(ops) > 0 && step < 64; step++ {
			op, name, typ, arg := ops.next()%6, fuzzOwners[ops.next()%len(fuzzOwners)],
				fuzzTypes[ops.next()%len(fuzzTypes)], ops.next()
			ttl := uint32(60 + 240*(arg>>2&1))
			var got, want any
			switch op {
			case add, add + 1:
				rr := dnswire.RR{Name: name, TTL: ttl, Data: fuzzData(typ, arg%3)}
				got, want = fmt.Sprint(z.Add(rr)), fmt.Sprint(r.Add(rr))
			case replace:
				var ds []dnswire.RData
				for i := 0; i < arg&3; i++ {
					ds = append(ds, fuzzData(typ, arg>>(3+i)%3))
				}
				got, want = fmt.Sprint(z.Replace(name, typ, ttl, ds...)), fmt.Sprint(r.Replace(name, typ, ttl, ds...))
			case remove:
				z.Remove(name, typ)
				r.Remove(name, typ)
			case bump:
				got, want = z.BumpSerial(), r.BumpSerial()
			case clone:
				zc, rc := z.Clone(), r.Clone()
				left := frozen{zc, observe(r)}
				if arg&1 == 1 { // go on with the clone; the source stays
					left.z, z, r = z, zc, rc
				}
				kept = append(kept, left)
			}
			if got != want {
				t.Fatalf("step %d: op %d %s %s %d: zone says %v, the reference %v", step, op, name, typ, arg, got, want)
			}
			if d := observe(z).diff(observe(r)); d != "" {
				t.Fatalf("step %d: after op %d %s %s %d, %s", step, op, name, typ, arg, d)
			}
			for i, k := range kept {
				if d := observe(k.z).diff(k.want); d != "" {
					t.Fatalf("step %d: the zone clone %d left behind changed: %s", step, i, d)
				}
			}
		}
	})
}
