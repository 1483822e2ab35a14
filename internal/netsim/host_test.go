package netsim

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/dnswire"
)

// countingHost is a LazyHost that binds a UDP and a TCP receiver at its
// address and counts its materializations and each plane's deliveries.
type countingHost struct {
	net            *Network
	addr           Addr
	made, udp, tcp int
}

func (h *countingHost) Materialize() {
	h.made++
	h.net.Bind(h.addr, func(Addr, []byte) { h.udp++ })
	h.net.BindTCP(h.addr, func(Addr, *dnswire.Message) { h.tcp++ })
}

// TestHostLifetimes: what an address's record holds (receivers, a pending
// constructor, loss dials, an anycast group) applies to the packets that
// arrive there, whichever was set first and whether or not a packet was
// in flight when it changed.
func TestHostLifetimes(t *testing.T) {
	const inFlight = 10 * time.Millisecond // a->b; the test acts 1 ms after send
	for _, c := range []struct {
		name           string
		run            func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost)
		want           Stats
		made, udp, tcp int
	}{
		{"lazy host not built by a dropped packet", func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost) {
			net.BindLazy("b", b)
			net.SetInboundLoss("b", 1)
			net.Send("a", "b", nil)
			clk.Run()
			if b.made != 0 {
				t.Errorf("a dropped packet built the lazy host")
			}
			net.SetInboundLoss("b", 0)
			net.Send("a", "b", nil)
			clk.Run()
		}, Stats{Sent: 2, Dropped: 1, Delivered: 1}, 1, 1, 0},
		{"lazy host reached over TCP, then UDP", func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost) {
			net.BindLazy("b", b)
			net.SendTCP("a", "b", tcpQuery)
			clk.Run()
			net.Send("a", "b", nil)
			clk.Run()
		}, Stats{Sent: 1, Delivered: 1, TCPSent: 1, TCPDelivered: 1, TCPConnects: 1}, 1, 1, 1},
		{"bound while a packet is in flight", func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost) {
			net.Send("a", "b", nil)
			clk.RunFor(time.Millisecond)
			b.Materialize()
			clk.Run()
		}, Stats{Sent: 1, Delivered: 1}, 1, 1, 0},
		{"detached while a packet is in flight", func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost) {
			b.Materialize()
			net.Send("a", "b", nil)
			clk.RunFor(time.Millisecond)
			net.Detach("b")
			clk.Run()
		}, Stats{Sent: 1, Dead: 1}, 1, 0, 0},
		{"loss set before the address binds", func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost) {
			net.SetInboundLoss("b", 1)
			b.Materialize()
			net.Send("a", "b", nil)
			clk.Run()
		}, Stats{Sent: 1, Dropped: 1}, 1, 0, 0},
		{"anycast site detached", func(t *testing.T, clk *clock.Virtual, net *Network, b *countingHost) {
			b.Materialize()
			net.BindAnycast("svc", []Addr{"b"}, nil)
			net.Detach("b")
			net.Send("a", "svc", nil)
			clk.Run()
		}, Stats{Sent: 1, Dead: 1}, 1, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk, net := newNet()
			net.SetPairDelay("a", "b", inFlight)
			b := &countingHost{net: net, addr: "b"}
			c.run(t, clk, net, b)
			if got := net.Stats(); got != c.want {
				t.Errorf("stats %+v, want %+v", got, c.want)
			}
			if b.made != c.made || b.udp != c.udp || b.tcp != c.tcp {
				t.Errorf("built %d times, %d UDP and %d TCP deliveries; want %d, %d, %d",
					b.made, b.udp, b.tcp, c.made, c.udp, c.tcp)
			}
		})
	}
}

// TestReadsAddNoRecord: reading the loss dial of, or detaching, an
// address the network has never seen leaves the host table as it was.
func TestReadsAddNoRecord(t *testing.T) {
	_, net := newNet()
	net.Detach("x")
	if p := net.InboundLoss("y"); p != 0 {
		t.Errorf("unknown address has loss %v", p)
	}
	if len(net.slots) != 0 || len(net.hosts) != 0 {
		t.Errorf("reads added %d records", len(net.slots))
	}
}

// TestSendsAddNoRecord: a packet on either plane to an address the
// network has no record of adds none and arrives Dead, unless the address
// binds while it is in flight; and a record carries no side record until
// the address uses the TCP plane or anycast.
func TestSendsAddNoRecord(t *testing.T) {
	clk, net := newNet()
	net.Bind("a", func(Addr, []byte) {})
	net.Send("a", "x", nil)
	net.SendTCP("a", "x", tcpQuery)
	clk.Run()
	if len(net.slots) != 1 {
		t.Errorf("sends to an unknown address added %d records", len(net.slots)-1)
	}
	if net.host(0).extra != nil {
		t.Error("a UDP-only address has a side record")
	}
	if got, want := net.Stats(), (Stats{Sent: 1, Dead: 1, TCPSent: 1, TCPDead: 1, TCPConnects: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}

	// Unknown pairs are at least 2 ms apart, so 1 ms after the sends
	// both packets are in flight when y binds.
	y := &countingHost{net: net, addr: "y"}
	net.Send("a", "y", nil)
	net.SendTCP("a", "y", tcpQuery)
	clk.RunFor(time.Millisecond)
	y.Materialize()
	clk.Run()
	if y.udp != 1 || y.tcp != 1 {
		t.Errorf("bound in flight: %d UDP and %d TCP deliveries, want 1 and 1", y.udp, y.tcp)
	}
	if unsafe.Sizeof(host{}) > 48 {
		t.Errorf("a host record is %d bytes, want ≤ 48", unsafe.Sizeof(host{}))
	}
}
