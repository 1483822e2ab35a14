package authoritative

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

// fitZone is a signed zone whose answers grow with k: the name k<k> owns
// k AAAA records, and sub<k> is delegated to k nameservers with A and
// AAAA glue.
func fitZone(t *testing.T, maxK int) *zone.Zone {
	t.Helper()
	z, err := zone.ParseString("$ORIGIN fit.test.\n$TTL 60\n@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n"+
		"@ IN NS ns1\nns1 IN A 192.0.2.1\n", "")
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("l", 40)
	for k := 1; k <= maxK; k++ {
		for j := 0; j < k; j++ {
			z.MustAdd(dnswire.RR{Name: fmt.Sprintf("k%d.%s.fit.test.", k, long), TTL: 60,
				Data: dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(k), 15: byte(j)})}})
		}
		if k > maxK/2 {
			continue
		}
		sub := fmt.Sprintf("sub%d.fit.test.", k)
		for j := 0; j < k; j++ {
			host := fmt.Sprintf("ns%d.%s", j, sub)
			z.MustAdd(dnswire.RR{Name: sub, TTL: 60, Data: dnswire.NS{Host: host}})
			z.MustAdd(dnswire.RR{Name: host, TTL: 60, Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{198, 51, byte(k), byte(j)})}})
			z.MustAdd(dnswire.RR{Name: host, TTL: 60,
				Data: dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 1, 14: byte(k), 15: byte(j)})}})
		}
	}
	if err := dnssec.BuildNSECChain(z); err != nil {
		t.Fatal(err)
	}
	key, err := dnssec.GenerateKey("fit.test.", dnssec.FlagZone, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dnssec.SignZone(z, key, time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC), 7*24*time.Hour); err != nil {
		t.Fatal(err)
	}
	return z
}

// replyHost packs the message each reply came with.
type replyHost struct{ wire []byte }

func (h *replyHost) Deliver(_ netsim.Addr, m *dnswire.Message) { h.wire, _ = m.Pack() }

// TestMessagePathFitsAsPackFirst holds the simulated reply path, which
// sends a response without packing it when its uncompressed bound fits
// the query's UDP limit and packs it to measure it only otherwise, to the
// pack-first byte path
// (HandleWireAppend): at limits 512 (with and without an OPT record),
// 1232 and 4096, on answers, referrals with glue, an NXDOMAIN with its
// SOA, each with DO=0 and DO=1 (signatures and NSEC proof), every reply
// packs to the same bytes, so the TC=1 decision and the truncated message
// agree. The sizes sweep across each limit, so some replies are over the
// bound yet fit once compressed.
func TestMessagePathFitsAsPackFirst(t *testing.T) {
	const maxK = 150
	s := New(fitZone(t, maxK))
	clk := clock.NewVirtual(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1)
	s.Attach(net, "192.0.2.53")
	h := &replyHost{}
	net.BindHost("198.51.100.7", h)

	names := []string{"missing.fit.test."}
	long := strings.Repeat("l", 40)
	for k := 1; k <= maxK; k++ {
		names = append(names, fmt.Sprintf("k%d.%s.fit.test.", k, long))
		if k <= maxK/2 {
			names = append(names, fmt.Sprintf("www.sub%d.fit.test.", k))
		}
	}
	var truncated, sentUnpacked, compressedFits int
	for _, limit := range []int{0, 512, 1232, 4096} {
		for _, do := range []bool{false, true} {
			if limit == 0 && do {
				continue // DO needs an OPT record
			}
			for _, name := range names {
				q := dnswire.NewQuery(9, name, dnswire.TypeAAAA)
				if limit > 0 {
					q.AddEDNS(uint16(limit), do)
				}
				wire, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				want := s.HandleWireAppend(nil, wire)
				net.SendMsg("198.51.100.7", "192.0.2.53", q)
				clk.Run()
				if string(h.wire) != string(want) {
					t.Fatalf("limit %d, DO %v, %s: message path replied %d octets, pack-first %d", limit, do, name, len(h.wire), len(want))
				}
				m, err := dnswire.Unpack(want)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := m.WireLenBound()
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case m.Truncated:
					truncated++
				case bound <= q.UDPPayloadLimit():
					sentUnpacked++
				default:
					compressedFits++
				}
			}
		}
	}
	t.Logf("%d replies truncated, %d sent unpacked, %d over the bound but fitting once packed", truncated, sentUnpacked, compressedFits)
	if truncated == 0 || sentUnpacked == 0 || compressedFits == 0 {
		t.Error("the sweep misses a side of the TC=1 decision")
	}
}
