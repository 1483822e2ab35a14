package udprun

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/authoritative"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

func TestTCPMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xab}, 4096)}
	for _, m := range msgs {
		if err := WriteTCPMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadTCPMessage(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if err := WriteTCPMessage(&buf, make([]byte, maxTCPMessage)); err == nil {
		t.Error("oversized message accepted")
	}
	if _, err := ReadTCPMessage(strings.NewReader("\x00\x05abc")); err == nil {
		t.Error("short message accepted")
	}
}

// TestTCPFramingEdgeCases pins the boundaries of the RFC 7766 framing:
// the largest legal message (65535 octets) round-trips, short reads mid
// prefix and mid payload never yield a partial message, and a reader
// that dribbles one byte at a time still reassembles cleanly.
func TestTCPFramingEdgeCases(t *testing.T) {
	// Largest message the 2-octet prefix can carry.
	max := bytes.Repeat([]byte{0xcd}, maxTCPMessage-1)
	var buf bytes.Buffer
	if err := WriteTCPMessage(&buf, max); err != nil {
		t.Fatalf("max-size write: %v", err)
	}
	if buf.Len() != 2+len(max) {
		t.Fatalf("framed length = %d, want %d", buf.Len(), 2+len(max))
	}
	got, err := ReadTCPMessage(iotest.OneByteReader(&buf))
	if err != nil {
		t.Fatalf("max-size read: %v", err)
	}
	if !bytes.Equal(got, max) {
		t.Fatalf("max-size message corrupted: %d bytes back", len(got))
	}

	// A length prefix cut short must error, not return an empty message.
	if _, err := ReadTCPMessage(strings.NewReader("\x00")); err == nil {
		t.Error("truncated length prefix accepted")
	}
	if _, err := ReadTCPMessage(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}

	// A payload cut short behind an honest prefix must error too, even
	// when the bytes dribble in.
	if _, err := ReadTCPMessage(iotest.OneByteReader(strings.NewReader("\x01\x00" + strings.Repeat("x", 100)))); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestDNSOverTCPEndToEnd serves a zone over TCP and queries it, including
// the TC-bit fallback flow: big answer truncated over UDP, complete over
// TCP.
func TestDNSOverTCPEndToEnd(t *testing.T) {
	z, err := zone.ParseString(udpTestZone, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		z.MustAdd(dnswire.RR{Name: "big.cachetest.nl.", TTL: 60, Data: dnswire.TXT{
			Strings: []string{fmt.Sprintf("%02d-%s", i, strings.Repeat("x", 40))},
		}})
	}
	srv := authoritative.New(z)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeTCP(ln, srv.HandleWireTCP)

	q := dnswire.NewQuery(3, "big.cachetest.nl.", dnswire.TypeTXT)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Over UDP the answer would be truncated (verified in the
	// authoritative tests); over TCP it comes back whole.
	out, err := TCPQuery(ln.Addr().String(), wire, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if m.Truncated || len(m.Answers) != 25 {
		t.Errorf("TCP answer: TC=%v answers=%d, want full", m.Truncated, len(m.Answers))
	}

	// Pipelining: two queries on one connection.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	small, _ := dnswire.NewQuery(4, "host.cachetest.nl.", dnswire.TypeAAAA).Pack()
	for i := 0; i < 2; i++ {
		if err := WriteTCPMessage(conn, small); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		out, err := ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("pipelined read %d: %v", i, err)
		}
		m, err := dnswire.Unpack(out)
		if err != nil || len(m.Answers) != 1 {
			t.Fatalf("pipelined answer %d: %v %v", i, m, err)
		}
	}
}

// FuzzReadTCPMessage feeds arbitrary streams to the RFC 7766 framing
// reader: it never panics, returns exactly the declared number of octets
// or an error, and allocates no more than the prefix declares.
func FuzzReadTCPMessage(f *testing.F) {
	// The small cases (short prefix, zero length, length beyond the stream,
	// 65 535 declared with one octet there) are the committed corpus under
	// testdata/fuzz; the largest legal message is too big to commit.
	f.Add([]byte{})
	f.Add(append([]byte{0xff, 0xff}, make([]byte, 65535)...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for consumed := 0; ; {
			got, err := ReadTCPMessage(r)
			rest := stream[consumed:]
			if len(rest) < 2 || len(rest)-2 < int(rest[0])<<8|int(rest[1]) {
				if err == nil {
					t.Fatalf("read %d octets out of a stream cut short at %d", len(got), consumed)
				}
				return
			}
			declared := int(rest[0])<<8 | int(rest[1])
			if err != nil {
				t.Fatalf("complete %d-octet message at %d: %v", declared, consumed, err)
			}
			if len(got) != declared || cap(got) > declared || !bytes.Equal(got, rest[2:2+declared]) {
				t.Fatalf("message at %d: len %d cap %d, declared %d", consumed, len(got), cap(got), declared)
			}
			var framed bytes.Buffer
			if err := WriteTCPMessage(&framed, got); err != nil || !bytes.Equal(framed.Bytes(), rest[:2+declared]) {
				t.Fatalf("message at %d does not re-frame to its own bytes: %v", consumed, err)
			}
			consumed += 2 + declared
		}
	})
}
