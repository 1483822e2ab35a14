package zone

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dnswire"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := New("cachetest.nl.")
	z.MustAdd(dnswire.RR{Name: "cachetest.nl.", TTL: 3600, Data: dnswire.SOA{
		MName: "ns1.cachetest.nl.", RName: "hostmaster.cachetest.nl.",
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 864000, Minimum: 60,
	}})
	z.MustAdd(dnswire.RR{Name: "cachetest.nl.", TTL: 3600, Data: dnswire.NS{Host: "ns1.cachetest.nl."}})
	z.MustAdd(dnswire.RR{Name: "cachetest.nl.", TTL: 3600, Data: dnswire.NS{Host: "ns2.cachetest.nl."}})
	z.MustAdd(dnswire.RR{Name: "ns1.cachetest.nl.", TTL: 3600, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.1")}})
	z.MustAdd(dnswire.RR{Name: "ns2.cachetest.nl.", TTL: 3600, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.2")}})
	z.MustAdd(dnswire.RR{Name: "1414.cachetest.nl.", TTL: 60, Data: dnswire.AAAA{
		Addr: dnswire.MustAddr("fd0f:3897:faf7:a375:1:586::3c"),
	}})
	z.MustAdd(dnswire.RR{Name: "www.cachetest.nl.", TTL: 300, Data: dnswire.CNAME{Target: "1414.cachetest.nl."}})
	// Delegation with in-zone glue.
	z.MustAdd(dnswire.RR{Name: "sub.cachetest.nl.", TTL: 3600, Data: dnswire.NS{Host: "ns.sub.cachetest.nl."}})
	z.MustAdd(dnswire.RR{Name: "ns.sub.cachetest.nl.", TTL: 3600, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.53")}})
	z.MustAdd(dnswire.RR{Name: "sub.cachetest.nl.", TTL: 3600, Data: dnswire.DS{
		KeyTag: 1, Algorithm: 8, DigestType: 2, Digest: []byte{1, 2},
	}})
	// Wildcard.
	z.MustAdd(dnswire.RR{Name: "*.wild.cachetest.nl.", TTL: 30, Data: dnswire.TXT{Strings: []string{"wild"}}})
	return z
}

func TestLookupSuccess(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.Kind != Success || len(res.Records) != 1 {
		t.Fatalf("got %s with %d records", res.Kind, len(res.Records))
	}
	if res.Records[0].TTL != 60 {
		t.Errorf("TTL = %d, want 60", res.Records[0].TTL)
	}
}

func TestLookupApexNS(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("cachetest.nl.", dnswire.TypeNS)
	if res.Kind != Success || len(res.Records) != 2 {
		t.Fatalf("apex NS: got %s with %d records", res.Kind, len(res.Records))
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("missing.cachetest.nl.", dnswire.TypeA)
	if res.Kind != NXDomain {
		t.Fatalf("got %s, want NXDomain", res.Kind)
	}
	if res.SOA.Data == nil {
		t.Error("NXDomain without SOA")
	}
}

func TestLookupNoData(t *testing.T) {
	z := testZone(t)
	// Name exists (has AAAA) but no A record.
	res := z.Lookup("1414.cachetest.nl.", dnswire.TypeA)
	if res.Kind != NoData {
		t.Fatalf("got %s, want NoData", res.Kind)
	}
	// Empty non-terminal: ns1 exists below it, so "cachetest.nl" subtree
	// node "sub" has NS. Use a pure ENT: x.y where only x.y.z exists.
	z.MustAdd(dnswire.RR{Name: "a.deep.cachetest.nl.", TTL: 5, Data: dnswire.TXT{Strings: []string{"x"}}})
	res = z.Lookup("deep.cachetest.nl.", dnswire.TypeA)
	if res.Kind != NoData {
		t.Errorf("empty non-terminal: got %s, want NoData", res.Kind)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.cachetest.nl.", dnswire.TypeAAAA)
	if res.Kind != CName {
		t.Fatalf("got %s, want CName", res.Kind)
	}
	if res.Records[0].Data.(dnswire.CNAME).Target != "1414.cachetest.nl." {
		t.Errorf("target = %v", res.Records[0].Data)
	}
	// Querying the CNAME type itself answers directly.
	res = z.Lookup("www.cachetest.nl.", dnswire.TypeCNAME)
	if res.Kind != Success {
		t.Errorf("CNAME qtype: got %s, want Success", res.Kind)
	}
}

func TestLookupDelegation(t *testing.T) {
	z := testZone(t)
	for _, name := range []string{"sub.cachetest.nl.", "host.sub.cachetest.nl.", "a.b.sub.cachetest.nl."} {
		res := z.Lookup(name, dnswire.TypeA)
		if res.Kind != Delegation {
			t.Fatalf("%s: got %s, want Delegation", name, res.Kind)
		}
		if len(res.Records) != 1 || res.Records[0].Type() != dnswire.TypeNS {
			t.Fatalf("%s: records %v", name, res.Records)
		}
		if len(res.Glue) != 1 || res.Glue[0].Name != "ns.sub.cachetest.nl." {
			t.Errorf("%s: glue %v", name, res.Glue)
		}
	}
}

func TestLookupDSAtCut(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("sub.cachetest.nl.", dnswire.TypeDS)
	if res.Kind != Success {
		t.Fatalf("DS at cut: got %s, want Success (parent-side answer)", res.Kind)
	}
	// But NS at the cut is a referral.
	res = z.Lookup("sub.cachetest.nl.", dnswire.TypeNS)
	if res.Kind != Delegation {
		t.Errorf("NS at cut: got %s, want Delegation", res.Kind)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("anything.wild.cachetest.nl.", dnswire.TypeTXT)
	if res.Kind != Success {
		t.Fatalf("wildcard: got %s", res.Kind)
	}
	if res.Records[0].Name != "anything.wild.cachetest.nl." {
		t.Errorf("wildcard owner = %s", res.Records[0].Name)
	}
	// Wrong type at wildcard is NODATA.
	res = z.Lookup("anything.wild.cachetest.nl.", dnswire.TypeA)
	if res.Kind != NoData {
		t.Errorf("wildcard NODATA: got %s", res.Kind)
	}
	// A wildcard CNAME answers every other type, owned by the query name
	// (RFC 1034 §4.3.2 step 3c, RFC 4592 §2.2.1).
	z.MustAdd(dnswire.RR{Name: "*.w.cachetest.nl.", TTL: 30, Data: dnswire.CNAME{Target: "1414.cachetest.nl."}})
	for _, qt := range []dnswire.Type{dnswire.TypeAAAA, dnswire.TypeCNAME} {
		want := CName
		if qt == dnswire.TypeCNAME {
			want = Success
		}
		res = z.Lookup("a.w.cachetest.nl.", qt)
		if res.Kind != want || len(res.Records) != 1 || res.Records[0].Name != "a.w.cachetest.nl." ||
			res.Records[0].Data.(dnswire.CNAME).Target != "1414.cachetest.nl." {
			t.Errorf("wildcard CNAME, %s query: got %s %v, want %s", qt, res.Kind, res.Records, want)
		}
	}
}

// TestAppendLookupAllocs: with reused slices, no lookup allocates —
// neither an answer nor the walk to a closest encloser that a negative or
// wildcard answer takes.
func TestAppendLookupAllocs(t *testing.T) {
	z, err := ParseString("$ORIGIN bench.nl.\n$TTL 3600\n"+
		"@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n@ IN NS ns1\nns1 IN A 127.0.0.1\n"+
		"*.u IN AAAA 2001:db8:ffff::1\nn1 IN AAAA 2001:db8::1\nx.ent IN AAAA 2001:db8::2\n", "")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]dnswire.RR, 0, 8)
	glue := make([]dnswire.RR, 0, 8)
	for _, c := range []struct {
		name string
		want ResultKind
	}{
		{"n1.bench.nl.", Success},
		{"n2.bench.nl.", NXDomain},
		{"probe7.u.bench.nl.", Success},
		{"a.b.c.bench.nl.", NXDomain},
		{"ent.bench.nl.", NoData},
	} {
		var kind ResultKind
		got := testing.AllocsPerRun(100, func() {
			kind, _ = z.AppendLookup(c.name, dnswire.TypeAAAA, &recs, &glue)
			recs, glue = recs[:0], glue[:0]
		})
		if kind != c.want || got != 0 {
			t.Errorf("AppendLookup(%s): %s with %.1f allocations, want %s with 0", c.name, kind, got, c.want)
		}
	}
}

func TestLookupNotInZone(t *testing.T) {
	z := testZone(t)
	if res := z.Lookup("example.com.", dnswire.TypeA); res.Kind != NotInZone {
		t.Errorf("got %s, want NotInZone", res.Kind)
	}
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := testZone(t)
	err := z.Add(dnswire.RR{Name: "example.com.", TTL: 1, Data: dnswire.A{Addr: dnswire.MustAddr("10.0.0.1")}})
	if err == nil {
		t.Error("Add accepted out-of-zone record")
	}
}

func TestAddDeduplicatesAndUnifiesTTL(t *testing.T) {
	z := New("example.nl.")
	a := dnswire.RR{Name: "example.nl.", TTL: 100, Data: dnswire.A{Addr: dnswire.MustAddr("10.0.0.1")}}
	z.MustAdd(a)
	z.MustAdd(a) // duplicate
	z.MustAdd(dnswire.RR{Name: "example.nl.", TTL: 999, Data: dnswire.A{Addr: dnswire.MustAddr("10.0.0.2")}})
	set := z.RRSet("example.nl.", dnswire.TypeA)
	if len(set) != 2 {
		t.Fatalf("set size = %d, want 2", len(set))
	}
	for _, rr := range set {
		if rr.TTL != 100 {
			t.Errorf("RRset TTL not unified: %d", rr.TTL)
		}
	}
}

func TestRemoveAndNodeCleanup(t *testing.T) {
	z := testZone(t)
	z.Remove("1414.cachetest.nl.", dnswire.TypeAAAA)
	res := z.Lookup("1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.Kind != NXDomain {
		t.Errorf("after Remove: got %s, want NXDomain", res.Kind)
	}
	// www's CNAME target removal must not break www itself.
	if res := z.Lookup("www.cachetest.nl.", dnswire.TypeAAAA); res.Kind != CName {
		t.Errorf("www after removal: %s", res.Kind)
	}
}

func TestReplaceRotatesData(t *testing.T) {
	z := testZone(t)
	err := z.Replace("1414.cachetest.nl.", dnswire.TypeAAAA, 60,
		dnswire.AAAA{Addr: dnswire.MustAddr("fd0f:3897:faf7:a375:2:586::3c")})
	if err != nil {
		t.Fatal(err)
	}
	res := z.Lookup("1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.Kind != Success || len(res.Records) != 1 {
		t.Fatalf("after Replace: %s/%d", res.Kind, len(res.Records))
	}
	want := dnswire.MustAddr("fd0f:3897:faf7:a375:2:586::3c")
	if got := res.Records[0].Data.(dnswire.AAAA).Addr; got != want {
		t.Errorf("addr = %v, want %v", got, want)
	}
	// Type mismatch is rejected.
	if err := z.Replace("x.cachetest.nl.", dnswire.TypeAAAA, 60, dnswire.A{Addr: dnswire.MustAddr("10.0.0.1")}); err == nil {
		t.Error("Replace accepted mismatched data type")
	}
}

// TestReplaceRejectsWithoutLoss: a Replace that fails validation leaves
// the set it was asked to replace serving. Removing first and checking
// after turned a typo into an NXDOMAIN.
func TestReplaceRejectsWithoutLoss(t *testing.T) {
	z := testZone(t)
	old := dnswire.MustAddr("fd0f:3897:faf7:a375:1:586::3c")
	for _, data := range [][]dnswire.RData{
		{dnswire.A{Addr: dnswire.MustAddr("10.0.0.1")}},
		{dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}, dnswire.A{Addr: dnswire.MustAddr("10.0.0.1")}},
		{dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}, nil},
	} {
		if err := z.Replace("1414.cachetest.nl.", dnswire.TypeAAAA, 60, data...); err == nil {
			t.Errorf("Replace accepted %v", data)
		}
		res := z.Lookup("1414.cachetest.nl.", dnswire.TypeAAAA)
		if res.Kind != Success || len(res.Records) != 1 || res.Records[0].Data.(dnswire.AAAA).Addr != old {
			t.Fatalf("after a rejected Replace of %v: %s %v", data, res.Kind, res.Records)
		}
	}
}

// TestReplaceResizes: growing, shrinking and emptying a set keep the node
// bookkeeping Add and Remove would have left.
func TestReplaceResizes(t *testing.T) {
	z := testZone(t)
	name, n0 := "1414.cachetest.nl.", z.Len()
	a1 := dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}
	a2 := dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::2")}
	for _, step := range []struct {
		data []dnswire.RData
		want ResultKind
		n    int
	}{
		{[]dnswire.RData{a1, a2, a1}, Success, 2}, // a duplicate counts once
		{[]dnswire.RData{a2}, Success, 1},
		{nil, NXDomain, 0},
		{[]dnswire.RData{a1}, Success, 1},
	} {
		if err := z.Replace(name, dnswire.TypeAAAA, 60, step.data...); err != nil {
			t.Fatal(err)
		}
		res := z.Lookup(name, dnswire.TypeAAAA)
		if res.Kind != step.want || len(res.Records) != step.n || z.Len() != n0-1+step.n {
			t.Errorf("after Replace with %v: %s, %d records, zone %d", step.data, res.Kind, len(res.Records), z.Len())
		}
	}
}

// TestReplaceConcurrentReaders: a reader racing 10 000 replaces, some
// resizing the set, sees the old set or the new one, never NXDOMAIN or
// NODATA in between. Run under -race.
func TestReplaceConcurrentReaders(t *testing.T) {
	z := testZone(t)
	name := "1414.cachetest.nl."
	a1 := dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}
	a2 := dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::2")}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if res := z.Lookup(name, dnswire.TypeAAAA); res.Kind != Success || len(res.Records) == 0 {
				t.Errorf("reader saw %s with %d records", res.Kind, len(res.Records))
				return
			}
		}
	}()
	for i := 0; i < 10000; i++ {
		data := []dnswire.RData{a1}
		if i%3 == 0 {
			data = append(data, a2)
		}
		if err := z.Replace(name, dnswire.TypeAAAA, 60, data...); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestPrecedingNSECConcurrent: readers of PrecedingNSEC race the first
// build of the owner index and a writer that keeps adding and removing
// an NSEC set, which drops the index each time; every reader still gets
// an NSEC record of the chain (run with -race).
func TestPrecedingNSECConcurrent(t *testing.T) {
	z := New("example.nl.")
	owner := func(i int) string { return fmt.Sprintf("n%02d.example.nl.", i) }
	for i := 0; i < 50; i++ {
		z.MustAdd(dnswire.RR{Name: owner(i), TTL: 60, Data: dnswire.NSEC{NextName: owner((i + 1) % 50)}})
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if rr, ok := z.PrecedingNSEC("x." + owner(i%50)); !ok || rr.Type() != dnswire.TypeNSEC {
					t.Errorf("PrecedingNSEC gave %v, %v", rr, ok)
					return
				}
			}
		}()
	}
	extra := []dnswire.RData{dnswire.NSEC{NextName: owner(0)}}
	for i := 0; i < 2000; i++ {
		if err := z.Replace("zz.example.nl.", dnswire.TypeNSEC, 60, extra[:i%2]...); err != nil { // remove, add, remove, ...
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestReplaceAllocs: the rotation's replace of a set keeping its size
// rewrites it in place, inline or in a node's overflow, allocating nothing.
func TestReplaceAllocs(t *testing.T) {
	z := testZone(t)
	var d dnswire.RData = dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}
	ns := []dnswire.RData{dnswire.NS{Host: "ns2.cachetest.nl."}, dnswire.NS{Host: "ns1.cachetest.nl."}}
	got := testing.AllocsPerRun(100, func() {
		if err := z.Replace("1414.cachetest.nl.", dnswire.TypeAAAA, 60, d); err != nil {
			t.Fatal(err)
		}
		if err := z.Replace("cachetest.nl.", dnswire.TypeNS, 60, ns...); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("same-size Replaces allocate %.1f objects, want 0", got)
	}
}

func TestSerialHelpers(t *testing.T) {
	z := testZone(t)
	if got := z.Serial(); got != 1 {
		t.Fatalf("Serial = %d", got)
	}
	if got := z.BumpSerial(); got != 2 {
		t.Fatalf("BumpSerial = %d", got)
	}
	if got := z.Serial(); got != 2 {
		t.Errorf("Serial after bump = %d", got)
	}
}

func TestNamesAndLen(t *testing.T) {
	z := testZone(t)
	names := z.Names()
	if len(names) == 0 || z.Len() == 0 {
		t.Fatal("empty Names/Len")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}
