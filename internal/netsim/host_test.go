package netsim

import (
	"testing"
	"time"

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
