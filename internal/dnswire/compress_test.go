package dnswire

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refBuilder is the compression oracle: the map-based builder.name the
// encoder shipped with before its table became a generation-stamped hash
// table, kept verbatim so the two can be compared byte for byte.
type refBuilder struct {
	buf      []byte
	offsets  map[string]int // canonical name suffix -> offset of its latest full encoding
	compress bool
}

func (b *refBuilder) name(n string, allowCompress bool) {
	n = CanonicalName(n)
	if n != "." {
		for start := 0; start < len(n); {
			suffix := n[start:]
			if b.compress && allowCompress {
				if off, ok := b.offsets[suffix]; ok && off < 0x4000 {
					b.buf = binary.BigEndian.AppendUint16(b.buf, 0xC000|uint16(off))
					return
				}
			}
			if len(b.buf) < 0x4000 {
				b.offsets[suffix] = len(b.buf)
			}
			end := strings.IndexByte(suffix, '.')
			label := suffix[:end]
			b.buf = append(b.buf, uint8(len(label)))
			b.buf = append(b.buf, label...)
			start += end + 1
		}
	}
	b.buf = append(b.buf, 0)
}

// refPack encodes m through the oracle. It walks the message itself and
// knows which rdata types embed names; everything else is the type's own
// uncompressed wire form.
func refPack(m *Message, compress bool) []byte {
	b := &refBuilder{offsets: map[string]int{}, compress: compress}
	u16 := func(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }
	u32 := func(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }
	u16(m.ID)
	u16(m.flags())
	u16(uint16(len(m.Questions)))
	u16(uint16(len(m.Answers)))
	u16(uint16(len(m.Authorities)))
	u16(uint16(len(m.Additionals)))
	for _, q := range m.Questions {
		b.name(q.Name, true)
		u16(uint16(q.Type))
		u16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			b.name(rr.Name, true)
			u16(uint16(rr.Type()))
			u16(uint16(rr.Class))
			u32(rr.TTL)
			lenAt := len(b.buf)
			u16(0)
			switch d := rr.Data.(type) {
			case NS:
				b.name(d.Host, true)
			case CNAME:
				b.name(d.Target, true)
			case PTR:
				b.name(d.Target, true)
			case MX:
				u16(d.Pref)
				b.name(d.Host, true)
			case SOA:
				b.name(d.MName, true)
				b.name(d.RName, true)
				for _, v := range []uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
					u32(v)
				}
			case NSEC:
				// Written in full into the message's own table: its
				// suffixes re-register at the new offsets.
				b.name(d.NextName, false)
				b.buf = append(b.buf, RDataWireOf(d)[len(NameWire(d.NextName)):]...)
			default:
				b.buf = append(b.buf, RDataWireOf(d)...)
			}
			binary.BigEndian.PutUint16(b.buf[lenAt:], uint16(len(b.buf)-lenAt-2))
		}
	}
	return b.buf
}

// checkAgainstReference packs m both ways through both encoders.
func checkAgainstReference(t *testing.T, m *Message) {
	t.Helper()
	got, err := m.Pack()
	if err != nil {
		return // refused identically in both forms; nothing to compare
	}
	if want := refPack(m, true); !bytes.Equal(got, want) {
		t.Fatalf("compressed encoding differs from the reference\n got: %x\nwant: %x", got, want)
	}
	if got, err = m.PackUncompressed(); err != nil {
		t.Fatalf("PackUncompressed failed after Pack succeeded: %v", err)
	}
	if want := refPack(m, false); !bytes.Equal(got, want) {
		t.Fatalf("uncompressed encoding differs from the reference\n got: %x\nwant: %x", got, want)
	}
}

// nxnsReferral is the NXNSAttack shape at the paper's size: 135 NS names
// under one victim suffix, plus glue for a few of them.
func nxnsReferral() *Message {
	m := NewResponse(NewQuery(0x0bad, "1.w135.evil.nl.", TypeAAAA))
	for j := 0; j < 135; j++ {
		m.Authorities = append(m.Authorities, RR{Name: "1.w135.evil.nl.", Class: ClassIN, TTL: 600,
			Data: NS{Host: "ns" + strconv.Itoa(j+1) + ".1.nx.victim.nl."}})
	}
	for j := 0; j < 4; j++ {
		m.Additionals = append(m.Additionals, RR{Name: "ns" + strconv.Itoa(j+1) + ".1.nx.victim.nl.",
			Class: ClassIN, TTL: 600, Data: A{Addr: MustAddr("203.0.113.9")}})
	}
	return m
}

// straddlingMessage has names on both sides of offset 0x4000, the last
// one a compression pointer may target: early suffixes stay usable, late
// ones are written in full and never registered.
func straddlingMessage() *Message {
	m := NewResponse(NewQuery(7, "straddle.example.nl.", TypeTXT))
	pad := strings.Repeat("x", 200)
	for i := 0; len(m.Answers) < 90; i++ {
		owner := "t" + strconv.Itoa(i) + ".z" + strconv.Itoa(i%7) + ".example.nl."
		m.Answers = append(m.Answers, RR{Name: owner, Class: ClassIN, TTL: 5, Data: TXT{Strings: []string{pad}}})
	}
	m.Authorities = append(m.Authorities,
		RR{Name: "late.only.test.", Class: ClassIN, TTL: 5, Data: NS{Host: "ns.late.only.test."}},
		RR{Name: "late.only.test.", Class: ClassIN, TTL: 5, Data: NS{Host: "t3.z3.example.nl."}})
	return m
}

// reRegisteringMessage has records whose rdata names are written in full
// (NSEC next name into the message's table, RRSIG signer name outside it)
// between names that compress, so "latest full encoding wins" shows.
func reRegisteringMessage() *Message {
	m := NewResponse(NewQuery(9, "a.example.nl.", TypeA))
	m.Answers = append(m.Answers,
		RR{Name: "a.example.nl.", Class: ClassIN, TTL: 60, Data: A{Addr: MustAddr("192.0.2.1")}},
		RR{Name: "a.example.nl.", Class: ClassIN, TTL: 60, Data: RRSIG{TypeCovered: TypeA, Algorithm: 15,
			Labels: 3, OriginalTTL: 60, KeyTag: 1, SignerName: "example.nl.", Signature: []byte{1, 2, 3}}})
	m.Authorities = append(m.Authorities,
		RR{Name: "a.example.nl.", Class: ClassIN, TTL: 60,
			Data: NSEC{NextName: "b.a.example.nl.", Types: []Type{TypeA, TypeRRSIG, TypeNSEC}}},
		RR{Name: "b.a.example.nl.", Class: ClassIN, TTL: 60,
			Data: NSEC{NextName: "example.nl.", Types: []Type{TypeNS}}},
		RR{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: NS{Host: "ns.b.a.example.nl."}},
		RR{Name: "example.nl.", Class: ClassIN, TTL: 60, Data: MX{Pref: 5, Host: "a.example.nl."}})
	return m
}

func TestPackMatchesReference(t *testing.T) {
	for _, m := range []*Message{sampleMessage(), nxnsReferral(), straddlingMessage(), reRegisteringMessage()} {
		checkAgainstReference(t, m)
	}
	if n := len(straddlingMessage().mustPack(t)); n <= 0x4000 {
		t.Fatalf("straddling message is %d bytes, does not cross 0x4000", n)
	}
}

func (m *Message) mustPack(t testing.TB) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// addCommittedCorpora seeds f with every input committed under
// testdata/fuzz, whichever target it was found by.
func addCommittedCorpora(f *testing.F) {
	for _, data := range committedCorpora(f) {
		f.Add(data)
	}
}

// committedCorpora returns every input committed under testdata/fuzz.
func committedCorpora(tb testing.TB) [][]byte {
	tb.Helper()
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no committed corpora: %v", err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, body, ok := strings.Cut(string(raw), "\n[]byte(")
		if !ok {
			tb.Fatalf("%s: not a one-[]byte corpus file", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzPackMatchesReference asserts the encoder's compression table is
// observably the map it replaced: any message the decoder accepts packs to
// the same bytes through both, compressed and uncompressed.
func FuzzPackMatchesReference(f *testing.F) {
	fuzzSeeds(f)
	addCommittedCorpora(f)
	for _, m := range []*Message{nxnsReferral(), straddlingMessage(), reRegisteringMessage()} {
		f.Add(m.mustPack(f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		checkAgainstReference(t, m)
	})
}

// TestPackLinearInNames keeps a quadratic compression table from landing:
// packing 2n distinct names must cost less than 3x packing n.
func TestPackLinearInNames(t *testing.T) {
	const n = 4096
	build := func(n int) *Message {
		m := NewResponse(NewQuery(1, "q.example.", TypeA))
		for i := 0; i < n; i++ {
			m.Answers = append(m.Answers, RR{Name: "h" + strconv.Itoa(i) + ".d" + strconv.Itoa(i) + ".example.",
				Class: ClassIN, TTL: 1, Data: NS{Host: "n" + strconv.Itoa(i) + ".example."}})
		}
		return m
	}
	cost := func(m *Message) time.Duration {
		best := time.Duration(1 << 62)
		buf := m.mustPack(t)
		for rep := 0; rep < 7; rep++ {
			start := time.Now()
			if _, err := m.AppendPack(buf[:0]); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := build(n), build(2*n)
	for try := 0; ; try++ {
		cs, cl := cost(small), cost(large)
		if cl < 3*cs {
			t.Logf("pack %d names %v, %d names %v (%.2fx)", n, cs, 2*n, cl, float64(cl)/float64(cs))
			return
		}
		if try == 3 { // a noisy host gets retries, a quadratic table fails all of them
			t.Fatalf("packing %d names took %v, %d names %v: more than 3x", n, cs, 2*n, cl)
		}
	}
}
