package authoritative

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/trace"
	"repro/internal/zone"
)

// freshNames is twice dnswire's intern table (2^14 slots), so the names
// cannot all be held there even on a decoder that interns every miss.
const freshNames = 1 << 15

// freshName is the i-th never-decoded name of freshServer's zone: a name
// in the zone, one that is not, or one under the wildcard, in turn (see
// freshAnswer). Every name of one kind has the same length.
func freshName(i int) string {
	return fmt.Sprintf([3]string{"n%06d.fresh.test.", "x%06d.fresh.test.", "w%06d.u.fresh.test."}[i%3], i)
}

// freshAnswer is the answer to freshName(i): NOERROR with one AAAA owned
// by the name, NXDOMAIN, or NOERROR with the wildcard's AAAA owned by the
// name.
func freshAnswer(i int) (rcode dnswire.RCode, answers int) {
	if i%3 == 1 {
		return dnswire.RCodeNXDomain, 0
	}
	return dnswire.RCodeNoError, 1
}

// freshServer serves a zone holding the in-zone names of freshName
// below limit and the wildcard *.u.
func freshServer(t testing.TB, limit int) *Server {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("$ORIGIN fresh.test.\n$TTL 60\n@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n" +
		"@ IN NS ns1\nns1 IN A 192.0.2.1\n*.u IN AAAA 2001:db8::1\n")
	for i := 0; i < limit; i += 3 {
		fmt.Fprintf(&sb, "n%06d IN AAAA 2001:db8::2\n", i)
	}
	z, err := zone.ParseString(sb.String(), "")
	if err != nil {
		t.Fatal(err)
	}
	return New(z)
}

func freshWire(t testing.TB, i int) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(uint16(i), freshName(i), dnswire.TypeAAAA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestHandleWireFreshNamesAllocateNothing answers freshNames names no
// decoder has seen, a third each NOERROR, NXDOMAIN and wildcard: once
// the pooled messages and the response buffer have grown, a query
// allocates nothing. Interning each missed name cost two objects.
func TestHandleWireFreshNamesAllocateNothing(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation accounting needs a plain, full run")
	}
	const warm = 64
	s := freshServer(t, freshNames+warm)
	wires := make([][]byte, freshNames+warm)
	for i := range wires {
		wires[i] = freshWire(t, i)
	}
	var buf []byte
	bad, call := 0, 0
	// A collection that starts mid-run empties msgPool (sync.Pool drops
	// what two collections in a row find unused), and the next query grows
	// a fresh message: 8 allocations, when another goroutine forces
	// collections during the run. Holding the collector off for the run
	// measures the queries, not the pool's refill.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// AllocsPerRun's first call is its warm-up: it answers the warm names,
	// so the measured call answers names never decoded before.
	spans := [2][2]int{{freshNames, freshNames + warm}, {0, freshNames}}
	total := testing.AllocsPerRun(1, func() {
		span := spans[call]
		call++
		for i := span[0]; i < span[1]; i++ {
			out := s.HandleWireAppend(buf[:0], wires[i])
			rcode, answers := freshAnswer(i)
			if len(out) < 12 || dnswire.RCode(out[3]&0xf) != rcode || int(binary.BigEndian.Uint16(out[6:])) != answers {
				bad++
			}
			buf = out
		}
	})
	if bad != 0 {
		t.Fatalf("%d of %d answers have the wrong rcode or answer count", bad, freshNames+warm)
	}
	if perQuery := total / freshNames; total != 0 {
		t.Errorf("%d fresh names cost %.0f allocations (%.3f per query), want 0", freshNames, total, perQuery)
	}
}

// TestTraceKeepsOwnNames answers never-interned names of one length in a
// row with tracing on: each EvAuthAnswer keeps its own name, though the
// decoded names share the pooled messages' storage.
func TestTraceKeepsOwnNames(t *testing.T) {
	const n = 8
	s := freshServer(t, 0)
	clk := clock.NewVirtual(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	s.trace = trace.NewBuffer(clk, clk.Now(), trace.Config{})
	for i := 0; i < n; i++ {
		if out := s.HandleWire(freshWire(t, 3*i+2)); out == nil {
			t.Fatalf("query %d: no answer", i)
		}
	}
	evs := s.trace.Events()
	if len(evs) != n {
		t.Fatalf("%d trace events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if want := freshName(3*i + 2); ev.Type != trace.EvAuthAnswer || ev.Name != want {
			t.Errorf("event %d: %v %q, want %v %q", i, ev.Type, ev.Name, trace.EvAuthAnswer, want)
		}
	}
}

// TestHandleWireConcurrent answers distinct fresh names from four
// goroutines at once, over HandleWireAppend and HandleWireTCP: a pooled
// message's borrowed names are never shared between two calls (go test
// -race checks the accesses).
func TestHandleWireConcurrent(t *testing.T) {
	const workers, each = 4, 300
	s := freshServer(t, workers*each)
	wires := make([][]byte, workers*each)
	for i := range wires {
		wires[i] = freshWire(t, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for k := 0; k < each; k++ {
				i := w*each + k
				var out []byte
				if k%2 == 0 {
					out = s.HandleWireAppend(buf[:0], wires[i])
					buf = out
				} else {
					out = s.HandleWireTCP(wires[i])
				}
				m, err := dnswire.Unpack(out)
				name := freshName(i)
				rcode, answers := freshAnswer(i)
				if err != nil || m.Question1().Name != name || m.RCode != rcode || len(m.Answers) != answers {
					t.Errorf("query %q: got %v (%v)", name, m, err)
					return
				}
				if answers == 1 && m.Answers[0].Name != name {
					t.Errorf("query %q: answer owned by %q", name, m.Answers[0].Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
