package zone

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/dnswire"
)

const sampleZone = `
$ORIGIN cachetest.nl.
$TTL 3600
@   IN SOA ns1 hostmaster (
        2018052201 ; serial
        7200       ; refresh
        3600       ; retry
        864000     ; expire
        60 )       ; negative TTL
@       IN NS  ns1
@       IN NS  ns2.cachetest.nl.
ns1     IN A   192.0.2.1
ns2     IN A   192.0.2.2
1414 60 IN AAAA fd0f:3897:faf7:a375:1:586::3c
www     IN CNAME 1414
mail    IN MX 10 mx.cachetest.nl.
mx      IN A   192.0.2.9
txt     IN TXT "hello world"
sub     IN NS  ns.sub
sub     IN DS  12345 8 2 deadbeef
ns.sub  IN A   192.0.2.53
`

func TestParseSampleZone(t *testing.T) {
	z, err := ParseString(sampleZone, "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin() != "cachetest.nl." {
		t.Errorf("origin = %q", z.Origin())
	}
	soa, ok := z.SOA()
	if !ok {
		t.Fatal("no SOA parsed")
	}
	s := soa.Data.(dnswire.SOA)
	if s.Serial != 2018052201 || s.Minimum != 60 || s.MName != "ns1.cachetest.nl." {
		t.Errorf("SOA = %+v", s)
	}
	if got := len(z.RRSet("cachetest.nl.", dnswire.TypeNS)); got != 2 {
		t.Errorf("NS count = %d", got)
	}
	aaaa := z.RRSet("1414.cachetest.nl.", dnswire.TypeAAAA)
	if len(aaaa) != 1 || aaaa[0].TTL != 60 {
		t.Fatalf("AAAA = %v", aaaa)
	}
	cname := z.RRSet("www.cachetest.nl.", dnswire.TypeCNAME)
	if len(cname) != 1 || cname[0].Data.(dnswire.CNAME).Target != "1414.cachetest.nl." {
		t.Errorf("CNAME = %v", cname)
	}
	mx := z.RRSet("mail.cachetest.nl.", dnswire.TypeMX)
	if len(mx) != 1 || mx[0].Data.(dnswire.MX).Pref != 10 {
		t.Errorf("MX = %v", mx)
	}
	ds := z.RRSet("sub.cachetest.nl.", dnswire.TypeDS)
	if len(ds) != 1 || ds[0].Data.(dnswire.DS).KeyTag != 12345 {
		t.Errorf("DS = %v", ds)
	}
	txt := z.RRSet("txt.cachetest.nl.", dnswire.TypeTXT)
	if len(txt) != 1 {
		t.Errorf("TXT = %v", txt)
	}
}

func TestParseRootishZone(t *testing.T) {
	text := `
$ORIGIN .
$TTL 518400
.    IN SOA a.root-servers.net. nstld.verisign-grs.com. 2018052200 1800 900 604800 86400
.    IN NS a.root-servers.net.
nl.  172800 IN NS ns1.dns.nl.
nl.  86400  IN DS 34112 8 2 aabbcc
a.root-servers.net. 518400 IN A 198.41.0.4
ns1.dns.nl. 172800 IN A 194.0.28.53
`
	z, err := ParseString(text, "")
	if err != nil {
		t.Fatal(err)
	}
	res := z.Lookup("www.example.nl.", dnswire.TypeA)
	if res.Kind != Delegation {
		t.Fatalf("root lookup under nl: %s", res.Kind)
	}
	if len(res.Glue) != 1 {
		t.Errorf("glue = %v", res.Glue)
	}
	// DS at the nl cut comes from the parent.
	res = z.Lookup("nl.", dnswire.TypeDS)
	if res.Kind != Success {
		t.Errorf("nl DS: %s", res.Kind)
	}
}

func TestParseTTLForms(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
		err  bool
	}{
		{"3600", 3600, false},
		{"1h", 3600, false},
		{"1h30m", 5400, false},
		{"2d", 172800, false},
		{"1w", 604800, false},
		{"90s", 90, false},
		{"", 0, true},
		{"abc", 0, true},
		{"1x", 0, true},
		{"h1", 0, true},
		{"1h30", 0, true},
		{"2H30M", 9000, false},
		// One ceiling for both forms: RFC 2181 §8's 2^31 - 1.
		{"2147483647", 1<<31 - 1, false},
		{"2147483648", 0, true},
		{"4294967295", 0, true},
		{"2147483647s", 1<<31 - 1, false},
		{"2147483648s", 0, true},
		{"596523h", 596523 * 3600, false},
		{"596524h", 0, true},
		{"3550w", 3550 * 604800, false},
		{"3551w", 0, true},
		{"1w2147483647s", 0, true},
		// Sums that wrap a uint64 were accepted as small TTLs.
		{"18446744073709551617s", 0, true},
		{"18446744073709551616", 0, true},
		{"30500568904943w", 0, true},
	}
	for _, c := range cases {
		got, err := parseTTL(c.in)
		if refGot, refErr := refParseTTL(c.in); refGot != got || fmt.Sprint(refErr) != fmt.Sprint(err) {
			t.Errorf("parseTTL(%q) = %d, %v; the reference says %d, %v", c.in, got, err, refGot, refErr)
		}
		if (err != nil) != c.err {
			t.Errorf("parseTTL(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseTTL(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// benchZoneText is a zone in the shape authd serves in the benchmark: one
// AAAA per name, n names.
func benchZoneText(n int) string {
	var sb strings.Builder
	sb.WriteString("$ORIGIN bench.nl.\n$TTL 3600\n" +
		"@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n@ IN NS ns1\nns1 IN A 127.0.0.1\n" +
		"*.u IN AAAA 2001:db8:ffff::1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "n%d IN AAAA 2001:db8::%x:%x\n", i, i>>16, i&0xffff)
	}
	return sb.String()
}

// multiZoneText is a zone whose n owners hold four records each, A,
// AAAA, MX and TXT, the owner written out on two lines and left out on
// the others.
func multiZoneText(n int) string {
	var sb strings.Builder
	sb.WriteString("$ORIGIN multi.nl.\n$TTL 3600\n" +
		"@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n@ IN NS ns1\nns1 IN A 127.0.0.1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "h%d IN A 10.%d.%d.1\nh%d IN AAAA 2001:db8::%x:%x\n\tIN MX 10 mx\n\tIN TXT \"v=spf1 -all\" \"h%d\"\n",
			i, i>>8&0xff, i&0xff, i, i>>16, i&0xffff, i)
	}
	return sb.String()
}

// TestParseAllocsPerRecord pins the load cost of the benchmark's zone
// shape at 10 000 names: per record, the owner name and the boxed AAAA.
// The text is read in place and the node map made once, at its size.
func TestParseAllocsPerRecord(t *testing.T) {
	text := benchZoneText(10000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	z, err := ParseString(text, "")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(z.Len())
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	if allocs > 2.1 || bytes > 152 {
		t.Errorf("Parse costs %.2f allocations and %.0f B per record, budget 2.1 and 152", allocs, bytes)
	}
	t.Logf("Parse: %.2f allocations, %.0f B per record over %.0f records", allocs, bytes, n)
}

// liveBytes returns the heap a zone parse returns keeps live, and the
// number of records and of names it holds.
func liveBytes(t *testing.T, parse func() (*Zone, error)) (live float64, records, names int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := liveHeap()
	z, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(z)
	return float64(after) - float64(before), z.Len(), len(z.Names())
}

// TestZoneBytesPerName pins what a parsed zone of the benchmark's shape
// and size, 100 000 names, keeps live: a map slot holding the name and its
// 40-byte node, the name's bytes, and the boxed AAAA. The two-map store it
// replaced held 196 B per record. The share a map slot costs depends on
// how full the map's tables happen to be: at 10 000 names they are
// emptier, and the two stores hold 145 and 223 B. Parse of a reader must
// keep no more than ParseString: a name pointing into the text it read
// would keep all of it live.
//
// Owners of several records must not cost more either. The node map is
// made at the size the text's owner runs give: on the four-record shape,
// read from a reader, it must hold no more than the 412 B per name of a
// map grown by doubling (and TXT strings that kept their whole line
// live). A hint of two per owner reads 469 B, TXT strings pointing into
// the read text 490 B.
func TestZoneBytesPerName(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 40 {
		t.Errorf("a node is %d bytes, budget 40", got)
	}
	text := benchZoneText(100000)
	for _, c := range []struct {
		name  string
		parse func() (*Zone, error)
	}{
		{"ParseString", func() (*Zone, error) { return ParseString(text, "") }},
		{"Parse", func() (*Zone, error) { return Parse(strings.NewReader(text), "") }},
	} {
		live, n, _ := liveBytes(t, c.parse)
		if perRecord := live / float64(n); perRecord > 130 {
			t.Errorf("%s: a parsed zone holds %.1f B live per record, budget 130", c.name, perRecord)
		} else {
			t.Logf("%s: %.1f B live per record over %d records", c.name, perRecord, n)
		}
	}
	runtime.KeepAlive(text) // live in every reading

	multi := multiZoneText(25000)
	live, n, names := liveBytes(t, func() (*Zone, error) { return Parse(strings.NewReader(multi), "") })
	if perName := live / float64(names); perName > 412 {
		t.Errorf("four records per owner: %.1f B live per name, budget 412", perName)
	} else {
		t.Logf("four records per owner: %.1f B live per name, %d records over %d names", perName, n, names)
	}
	runtime.KeepAlive(multi)
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"unterminated parens", "$ORIGIN x.\n@ 60 IN SOA a. b. (1 2 3 4 5\n"},
		{"unknown directive", "$BOGUS foo\n"},
		{"unknown type", "$ORIGIN x.\n@ 60 IN WKS data\n"},
		{"no TTL", "$ORIGIN x.\n@ IN A 10.0.0.1\n"},
		{"bad A", "$ORIGIN x.\n@ 60 IN A nonsense\n"},
		{"A with v6", "$ORIGIN x.\n@ 60 IN A ::1\n"},
		{"AAAA with v4", "$ORIGIN x.\n@ 60 IN AAAA 10.0.0.1\n"},
		{"relative origin", "$ORIGIN x\n"},
		{"bad DS digest", "$ORIGIN x.\n@ 60 IN DS 1 8 2 zz\n"},
		{"blank first record", "$ORIGIN x.\n  60 IN A 10.0.0.1\n"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.text, ""); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestParseInheritsOwnerAndTTL(t *testing.T) {
	text := `$ORIGIN example.nl.
$TTL 300
host IN A 10.0.0.1
     IN A 10.0.0.2
     IN AAAA ::1
`
	z, err := ParseString(text, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(z.RRSet("host.example.nl.", dnswire.TypeA)); got != 2 {
		t.Errorf("A count = %d, want 2", got)
	}
	if got := len(z.RRSet("host.example.nl.", dnswire.TypeAAAA)); got != 1 {
		t.Errorf("AAAA count = %d, want 1", got)
	}
}

// TestParseReadError holds Parse of a reader that fails to the reference,
// which reads through bufio.Scanner: the lines before the failure are
// parsed, and the read error is returned where the end of file would be.
func TestParseReadError(t *testing.T) {
	for _, text := range []string{
		"$ORIGIN x.\n@ 60 IN A 10.0.0.1\n",
		"$ORIGIN x.\n@ 60 IN A 10.0.0.1\nw 60 IN A",
		"$ORIGIN x.\n@ 60 IN A nonsense\n",
		"$ORIGIN x.\n@ 60 IN SOA a b ( 1 2\n",
		"",
	} {
		reader := func() io.Reader {
			return io.MultiReader(strings.NewReader(text), iotest.ErrReader(errors.New("disk gone")))
		}
		_, err := Parse(reader(), "")
		_, refErr := refParse(reader(), "")
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("Parse(%q then a read error) = %v, the reference %v", text, err, refErr)
		}
	}
}

// TestParseFileReadsOnce parses a zone file: the text is read into one
// buffer of the file's size (plus ReadFrom's free minimum and the
// allocator's rounding to a page), not grown by doubling, and parses as
// ParseString does.
func TestParseFileReadsOnce(t *testing.T) {
	text := benchZoneText(20000)
	path := filepath.Join(t.TempDir(), "bench.zone")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := readAll(f)
	if err != nil || string(b) != text {
		t.Fatalf("readAll read %d octets (%v), want the file's %d", len(b), err, len(text))
	}
	if slack := cap(b) - len(text); slack > bytes.MinRead+8192 {
		t.Errorf("readAll buffer holds %d octets for a %d-octet file", cap(b), len(text))
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	z, err := Parse(f, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseString(text, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, w := z.MarshalString(), want.MarshalString(); got != w {
		t.Errorf("Parse of the file marshals to %d octets, ParseString %d", len(got), len(w))
	}
}

func TestParseDefaultOrigin(t *testing.T) {
	z, err := Parse(strings.NewReader("@ 60 IN A 10.0.0.1\n"), "example.nl.")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(z.RRSet("example.nl.", dnswire.TypeA)); got != 1 {
		t.Errorf("A count = %d", got)
	}
}

// BenchmarkParse parses the benchmark's zone shape at its size, 100 000
// names; ns/op over 100 004 records is zone.parse_ns_per_rr's time.
//
//	go test -c -o zone.test ./internal/zone
//	./zone.test -test.run '^$' -test.bench '^BenchmarkParse$' -test.benchmem
func BenchmarkParse(b *testing.B) {
	text := benchZoneText(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := ParseString(text, "")
		if err != nil {
			b.Fatal(err)
		}
		parsed = z
	}
}

// parsed keeps BenchmarkParse's result, so the parse is not optimized away.
var parsed *Zone

// liveHeap collects and returns the heap bytes that collection marked
// live. Unlike MemStats.HeapAlloc read after runtime.GC, it does not count
// what other goroutines allocate between the collection and the read.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
