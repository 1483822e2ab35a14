package authoritative

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

// denialQueries is how many DO=1 NXDOMAIN queries one measured batch asks.
const denialQueries = 2000

// denialServer serves a zone of names AAAA owners, signed with an NSEC
// chain or not, and returns it with the wires of denialQueries DO=1
// queries for names between those owners that do not exist.
func denialServer(t *testing.T, names int, signed bool) (*Server, [][]byte) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("$ORIGIN denial.test.\n$TTL 60\n@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n" +
		"@ IN NS ns1\nns1 IN A 192.0.2.1\n")
	for i := 0; i < names; i++ {
		fmt.Fprintf(&sb, "n%06d IN AAAA 2001:db8::2\n", 2*i)
	}
	z, err := zone.ParseString(sb.String(), "")
	if err != nil {
		t.Fatal(err)
	}
	if signed {
		if err := dnssec.BuildNSECChain(z); err != nil {
			t.Fatal(err)
		}
		key, err := dnssec.GenerateKey("denial.test.", dnssec.FlagZone, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := dnssec.SignZone(z, key, time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC), 7*24*time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	wires := make([][]byte, denialQueries)
	for i := range wires {
		q := dnswire.NewQuery(uint16(i), fmt.Sprintf("n%06d.denial.test.", 2*(i*names/denialQueries)+1), dnswire.TypeAAAA)
		q.AddEDNS(4096, true)
		if wires[i], err = q.Pack(); err != nil {
			t.Fatal(err)
		}
	}
	return New(z), wires
}

// denialRounds is how many timed batches each zone size gets.
const denialRounds = 15

// TestDenialCostFlat answers DO=1 NXDOMAIN queries from zones of 1 000
// and 10 000 names, unsigned and signed: an answer allocates nothing,
// signatures and proof included, and its time does not grow with the
// zone. Finding the covering NSEC once
// sorted and scanned every name of the zone per query, chain or not.
// The two sizes' batches alternate, so both see the same host load, and
// each size keeps its fastest batch: the least disturbed by the host.
func TestDenialCostFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation and time accounting need a plain, full run")
	}
	sizes := [2]int{1000, 10000}
	for _, signed := range []bool{false, true} {
		var batches [2]func()
		var allocs [2]float64
		for i, names := range sizes {
			s, wires := denialServer(t, names, signed)
			var buf []byte
			batches[i] = func() {
				for _, w := range wires {
					buf = s.HandleWireAppend(buf[:0], w)
				}
			}
			batches[i]() // grow the pooled messages and the response buffer
			m, err := dnswire.Unpack(buf)
			if err != nil {
				t.Fatal(err)
			}
			proof := false
			for _, rr := range m.Authorities {
				proof = proof || rr.Type() == dnswire.TypeNSEC
			}
			if m.RCode != dnswire.RCodeNXDomain || proof != signed {
				t.Fatalf("signed %v, %d names: rcode %v, NSEC proof %v", signed, names, m.RCode, proof)
			}
			// A collection mid-run empties msgPool, and the refill would
			// count (see TestHandleWireFreshNamesAllocateNothing).
			gc := debug.SetGCPercent(-1)
			allocs[i] = testing.AllocsPerRun(3, batches[i]) / denialQueries
			debug.SetGCPercent(gc)
			if allocs[i] != 0 {
				t.Errorf("signed %v, %d names: %.3f allocations per DO=1 NXDOMAIN, want 0", signed, names, allocs[i])
			}
		}
		perQuery := [2]time.Duration{1 << 62, 1 << 62}
		for r := range denialRounds {
			for k := range sizes {
				i := (r + k) % len(sizes) // which size goes first alternates too
				start := time.Now()
				batches[i]()
				perQuery[i] = min(perQuery[i], time.Since(start)/denialQueries)
			}
		}
		t.Logf("signed %v: %.2f / %.2f allocations and %v / %v per query at 1 000 / 10 000 names",
			signed, allocs[0], allocs[1], perQuery[0], perQuery[1])
		if allocs[1] > allocs[0]+0.05 {
			t.Errorf("signed %v: %.2f allocations per query at 10 000 names, %.2f at 1 000", signed, allocs[1], allocs[0])
		}
		if perQuery[1] > 2*perQuery[0] {
			t.Errorf("signed %v: %v per query at 10 000 names, more than twice the %v at 1 000", signed, perQuery[1], perQuery[0])
		}
	}
}
