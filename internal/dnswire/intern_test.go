package dnswire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"unsafe"
)

// distinctWire returns a packed response and a function that rewrites it
// in place so that its owner name, A, AAAA and NS values are unique to i
// (i < 10^7). Patching bytes keeps the 10^6-message test about decoding.
func distinctWire(t testing.TB) (wire []byte, set func(i int)) {
	t.Helper()
	const digits = "0000000"
	v4 := [4]byte{0xde, 0xad, 0xbe, 0xef}
	v6 := [16]byte{0: 0xfd, 8: 0xde, 9: 0xad, 10: 0xbe, 11: 0xef, 12: 0xde, 13: 0xad, 14: 0xbe, 15: 0xef}
	name := "h" + digits + ".bounded.test."
	m := NewResponse(NewQuery(1, name, TypeA))
	m.Answers = append(m.Answers,
		RR{Name: name, Class: ClassIN, TTL: 1, Data: A{Addr: netip.AddrFrom4(v4)}},
		RR{Name: name, Class: ClassIN, TTL: 1, Data: AAAA{Addr: netip.AddrFrom16(v6)}})
	m.Authorities = append(m.Authorities,
		RR{Name: "bounded.test.", Class: ClassIN, TTL: 1, Data: NS{Host: "ns." + name}})
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Owner and NS host compress to the question name, so one patch of
	// its digits renames all three.
	at := bytes.Index(wire, []byte(digits))
	a4 := bytes.Index(wire, v4[:])
	a6 := bytes.Index(wire, v6[8:])
	if at < 0 || a4 < 0 || a6 < 0 {
		t.Fatal("template fields not found")
	}
	return wire, func(i int) {
		binary.BigEndian.PutUint32(wire[a4:], uint32(i))
		binary.BigEndian.PutUint64(wire[a6:], uint64(i))
		for d := len(digits) - 1; d >= 0; d-- {
			wire[at+d] = byte('0' + i%10)
			i /= 10
		}
	}
}

// TestInternBounded decodes 10^6 distinct names, A, AAAA and NS values
// (and formats as many distinct addresses): once every slot has been
// filled the tables' heap footprint must stop growing. The tables this
// one replaced either stopped interning at a cap (names, rdata) or grew
// without limit (recursive's address strings).
func TestInternBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("10^6 decodes")
	}
	var scratch Message
	wire, set := distinctWire(t)
	decode := func(from, to int) {
		for i := from; i < to; i++ {
			set(i)
			if err := UnpackInto(&scratch, wire); err != nil {
				t.Fatal(err)
			}
			AddrString(scratch.Answers[0].Data.(A).Addr)
		}
	}
	const total = 1_000_000
	const warm = 6 * internSlots // leaves ~0.25% of the slots still empty
	decode(0, warm)
	before := liveHeap()
	decode(warm, total)
	after := liveHeap()
	// An unbounded table would hold (total-warm) x 4 more entries here,
	// upwards of 100 MiB.
	if growth := int64(after) - int64(before); growth > 1<<20 {
		t.Fatalf("heap grew %d bytes over the last %d distinct messages: the intern tables are not bounded",
			growth, total-warm)
	}
}

// TestInternConcurrent has 8 goroutines decode overlapping and disjoint
// messages at once: every decode must equal the single-threaded one (a
// hit, a miss and a lost race all build equal values), and `go test
// -race` must see no unsynchronized access.
func TestInternConcurrent(t *testing.T) {
	const workers, shared, own, rounds = 8, 48, 48, 40
	type sample struct {
		wire []byte
		want *Message
	}
	template, set := distinctWire(t)
	mk := func(i int) sample {
		set(i)
		wire := bytes.Clone(template)
		want, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		return sample{wire, want}
	}
	lists := make([][]sample, workers)
	for w := range lists {
		for i := 0; i < shared; i++ {
			lists[w] = append(lists[w], mk(i))
		}
		for i := 0; i < own; i++ {
			lists[w] = append(lists[w], mk(1000*(w+1)+i))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(list []sample) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, s := range list {
					got, err := Unpack(s.wire)
					if err != nil || !reflect.DeepEqual(got, s.want) {
						t.Errorf("concurrent decode differs (err %v)\n got: %+v\nwant: %+v", err, got, s.want)
						return
					}
					for _, rr := range got.Answers {
						if a, ok := rr.Data.(A); ok && AddrString(a.Addr) != a.Addr.String() {
							t.Errorf("AddrString(%v) = %q", a.Addr, AddrString(a.Addr))
							return
						}
					}
				}
			}
		}(lists[w])
	}
	wg.Wait()
}

// TestUnpackBorrowLeavesInternTable borrow-decodes a few thousand
// answers whose names (owners only, no names in record data) the table
// does not hold: each decodes right, and no slot of the name table is
// written. A name interned first hits and comes back as the interned
// string, not a copy in the message's storage.
func TestUnpackBorrowLeavesInternTable(t *testing.T) {
	const digits = "0000000"
	name := func(i int) string { return fmt.Sprintf("b%07d.borrow.test.", i) }
	r := NewResponse(NewQuery(1, name(0), TypeAAAA))
	r.Answers = append(r.Answers,
		RR{Name: name(0), Class: ClassIN, TTL: 1, Data: AAAA{Addr: MustAddr("2001:db8::1")}},
		RR{Name: name(0), Class: ClassIN, TTL: 1, Data: A{Addr: MustAddr("192.0.2.1")}})
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(wire, []byte(digits))
	want, err := Unpack(wire) // interns the first name
	if err != nil {
		t.Fatal(err)
	}
	var before [internSlots]*internEntry[string, string]
	for i := range before {
		before[i] = nameIntern.slots[i].Load()
	}
	var m Message
	if err := UnpackBorrow(&m, wire); err != nil {
		t.Fatal(err)
	}
	if got := m.Questions[0].Name; got != want.Questions[0].Name ||
		unsafe.StringData(got) != unsafe.StringData(want.Questions[0].Name) {
		t.Errorf("interned name decoded as %q, not the interned string", got)
	}
	for i := 1; i <= 4096; i++ {
		copy(wire[at:], name(i)[1:8])
		if err := UnpackBorrow(&m, wire); err != nil {
			t.Fatal(err)
		}
		if n := name(i); m.Questions[0].Name != n || m.Answers[0].Name != n || m.Answers[1].Name != n {
			t.Fatalf("decode %d: names %q %q %q, want %q", i,
				m.Questions[0].Name, m.Answers[0].Name, m.Answers[1].Name, n)
		}
	}
	for i := range before {
		if nameIntern.slots[i].Load() != before[i] {
			t.Fatalf("slot %d of the name table was written by a borrowed decode", i)
		}
	}
}

// liveHeap collects and returns the heap bytes that collection marked
// live. Unlike MemStats.HeapAlloc read after runtime.GC, it does not count
// what other goroutines allocate between the collection and the read.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
