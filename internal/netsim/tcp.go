// TCP plane of the simulated network (DESIGN.md §11). DNS-over-TCP in
// this simulator is message-level like the UDP plane, and a TCP packet is
// its message only: nothing reads its bytes, so nothing packs it, and
// framing is the transport daemons' concern (internal/udprun). It models
// the three properties that matter for DoTCP-fallback experiments:
//
//   - connection-setup cost: the first message between a host pair pays
//     one extra round trip (SYN / SYN-ACK) before the data segment, and
//     an idle connection expires so later exchanges pay it again;
//   - higher per-query latency: even warm connections ride the same
//     one-way delay model as UDP, so a TC→TCP retry always costs at
//     least one additional RTT on top of the truncated UDP exchange;
//   - separate capacity under flood: inbound loss for the TCP plane is
//     its own dial (SetInboundLossTCP), so a volumetric UDP flood at an
//     authoritative can leave TCP usable (or a state-exhaustion attack
//     can do the opposite). A lost TCP exchange is not retransmitted by
//     the simulator — the loss probability models the whole exchange
//     failing under flood, and the application-level timeout recovers.
//
// TCP arrivals are not shown to taps: taps exist to count queries
// arriving at the authoritatives "before the simulated DDoS drop", and
// the conservation invariants built on them are defined over the UDP
// plane. TCP traffic is accounted by its own Stats counters instead.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/dnswire"
	"repro/internal/trace"
)

// tcpIdleTimeout is how long an established simulated connection stays
// warm after its last message; afterwards the next exchange pays the
// handshake again. RFC 7766 recommends resolvers keep idle connections
// open for a few seconds to tens of seconds.
const tcpIdleTimeout = 30 * time.Second

// BindTCP attaches recv as addr's TCP-plane receiver and returns a
// TCPPort for sending from it. recv is handed the packet's message, under
// Host.Deliver's rules. The UDP and TCP planes are separate namespaces:
// binding one does not bind the other.
func (n *Network) BindTCP(addr Addr, recv func(src Addr, m *dnswire.Message)) *TCPPort {
	if addr == "" {
		panic("netsim: empty address")
	}
	n.record(addr).tcp = recv
	return &TCPPort{net: n, addr: addr}
}

// SetInboundLossTCP sets the probability in [0,1] that a TCP exchange
// arriving at dst fails. It is independent of the UDP-plane loss: a
// query flood saturating an authoritative's UDP receive path does not
// necessarily exhaust its TCP listener, and vice versa.
func (n *Network) SetInboundLossTCP(dst Addr, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netsim: tcp loss probability %v out of range", p))
	}
	n.record(dst).tcpLoss = p
}

// SendTCP schedules delivery of m from src to dst over the TCP plane. A
// cold host pair pays one extra round trip for the handshake before the
// data segment; the connection then stays warm for tcpIdleTimeout after
// its last message. Like SendMsg, the packet carries a copy of m and the
// loss decision is made at arrival.
func (n *Network) SendTCP(src, dst Addr, m *dnswire.Message) {
	p := n.newPacket(src, dst, n.slot(dst), true)
	p.carry(m)
	oneWay := n.delay(p)
	delay := oneWay
	// Both directions of an exchange share one simulated connection: the
	// responder answers on the connection the initiator opened.
	s := n.slot(src)
	key := [2]int32{min(s, p.slot), max(s, p.slot)}
	now := n.clk.Now()
	if exp, ok := n.tcpConns[key]; !ok || now.After(exp) {
		delay += 2 * oneWay // SYN + SYN-ACK before the data segment
		n.stats.TCPConnects++
		n.event(trace.EvTCPConnect, src, dst, m)
	}
	n.tcpConns[key] = now.Add(delay + tcpIdleTimeout)
	n.stats.TCPSent++
	n.clk.AfterFuncRef(delay, deliverPacket, p)
}

// arriveTCP applies the TCP-plane loss dial and hands p's message to the
// bound receiver. Lazy hosts materialize exactly as on the UDP plane, so
// population builders need no TCP-specific wiring.
func (n *Network) arriveTCP(p *packet) {
	h := n.host(p.slot)
	src, dst := p.src, p.dst
	dropped := h.tcpLoss > 0 && n.rng.Float64() < h.tcpLoss
	if !dropped && h.tcp == nil {
		h.materialize()
	}
	recv := h.tcp
	switch {
	case dropped:
		n.stats.TCPDropped++
	case recv == nil:
		n.stats.TCPDead++
	default:
		n.stats.TCPDelivered++
	}

	n.event(arrival(dropped), src, dst, &p.msg)
	if !dropped && recv != nil {
		recv(src, &p.msg)
	}
}

// TCPPort is a bound TCP-plane address on the network.
type TCPPort struct {
	net  *Network
	addr Addr
}

// Addr returns the bound address.
func (p *TCPPort) Addr() Addr { return p.addr }

// SendMsg transmits m from this port's address to dst over TCP.
func (p *TCPPort) SendMsg(dst Addr, m *dnswire.Message) {
	p.net.SendTCP(p.addr, dst, m)
}

var _ Conn = (*TCPPort)(nil)
