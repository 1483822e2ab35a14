// Package netsim is a message-level network simulator. Hosts are identified
// by string addresses; packets are delivered through a clock.Clock with a
// deterministic per-pair latency model, per-host inbound loss (the knob used
// to emulate volumetric DDoS, mirroring the paper's random iptables drop of
// queries arriving at the authoritatives), and taps that observe traffic
// before the drop decision (the paper measures queries "before they are
// dropped by our simulated DDoS", §6.1).
//
// A UDP packet is either bytes (Send) or a dnswire.Message (SendMsg), of
// which it carries a packet-owned copy; receivers and taps read that copy
// and decode only bytes that came alone. A sender hands over its message
// unpacked, and the network packs it only for a reader of bytes: at send
// when the network has a byte tap (AddTap) or a trace buffer, or the
// destination a path MTU; at arrival when the destination is a raw host
// (Bind), or such a reader appeared while the packet was in flight. Every
// size that is read (the MTU, a byte count) is so the exact packed size.
//
// A Network belongs to the goroutine that owns its clock (see package
// clock): nothing here locks, and hosts are called from that goroutine's
// event loop only, one dispatch at a time (see Shared).
package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/lazyrand"
	"repro/internal/metrics"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Addr identifies a host on the simulated network (by convention an IP
// address literal, but any non-empty string works).
type Addr string

// Event describes one packet arrival as seen by a tap, before the inbound
// loss decision is applied. Msg is the packet's message, nil when the
// sender handed over bytes only; a tap decodes Payload only then. Payload
// is the packet's bytes: always set for a byte tap (AddTap), nil for a
// message tap (AddMsgTap) when the packet was never packed. Neither
// outlives the tap call.
type Event struct {
	Time    time.Time
	Src     Addr
	Dst     Addr
	Payload []byte
	Msg     *dnswire.Message
	Dropped bool
}

// LatencyFunc samples the one-way delay for a packet from src to dst.
type LatencyFunc func(src, dst Addr, rng *rand.Rand) time.Duration

// Stats are cumulative network counters.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // lost to inbound loss (including MTU drops)
	Dead      int64 // destination not attached
	// UDP size semantics and the TCP plane (tcp.go).
	MTUDropped   int64 // datagrams over the path MTU toward dst
	TCPSent      int64
	TCPDelivered int64
	TCPDropped   int64 // lost to the TCP-plane inbound loss dial
	TCPDead      int64 // destination has no TCP receiver
	TCPConnects  int64 // simulated connection handshakes paid
}

// Network simulates a lossy packet network on top of a Clock.
//
// Send and SendMsg copy what they are handed into the packet, so a sender
// may reuse its buffer and message at once; the receiver and the taps see
// the packet's copies, valid for the duration of their call only. Every
// engine in this repository hands its messages over unpacked with
// SendMsg, and decodes on arrival only what came as bytes alone.
type Network struct {
	clk clock.Clock
	// argClk is clk's closure-free scheduling extension, when available
	// (the virtual clock implements it); nil otherwise.
	argClk clock.ArgScheduler

	rng     *rand.Rand
	hosts   map[Addr]Host
	lazy    map[Addr]LazyHost // deferred host constructors, see BindLazy
	inLoss  map[Addr]float64
	pairs   map[[2]Addr]time.Duration
	latency LatencyFunc
	taps    []func(Event) // byte taps: every packet is packed at send
	msgTaps []func(Event)
	anycast map[Addr]*anycastGroup
	// trace and timeline are the cell's observers (see SetTrace).
	trace    *trace.Buffer
	timeline *timeline.Collector
	stats    Stats
	// UDP size semantics and the TCP plane (tcp.go).
	mtu      map[Addr]int // per-destination UDP payload limit
	tcpHosts map[Addr]func(src Addr, payload []byte)
	tcpLoss  map[Addr]float64
	tcpConns map[[2]Addr]time.Time // established pair -> idle expiry
	// pktFree recycles in-flight packets of both planes (see packet).
	pktFree *packet
	// shared holds one value per type handed out by Shared.
	shared []any
}

// Shared returns the network's one *T, made zero on first request. It is
// the cell's working set for engines of one kind: every engine on a
// network runs on its clock's goroutine and none calls another
// synchronously, so scratch whose contents never outlive a dispatch, and
// free lists under the recycle rule of packet, serve them all from one
// copy instead of one per engine. T must be a type only the engine's
// package can name, so no other package reaches its copy.
func Shared[T any](n *Network) *T {
	for _, v := range n.shared {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	n.shared = append(n.shared, p)
	return p
}

// SetTrace installs the cell's trace buffer (nil disables tracing). The
// network owns a cell's observers: every engine handed the network reads
// them from it when it attaches, so set them before anything binds.
func (n *Network) SetTrace(tr *trace.Buffer) { n.trace = tr }

// SetTimeline installs the cell's per-bucket series collector (nil
// disables collection); same ownership rule as SetTrace.
func (n *Network) SetTimeline(c *timeline.Collector) { n.timeline = c }

// Trace and Timeline return the cell's observers, nil when off.
func (n *Network) Trace() *trace.Buffer          { return n.trace }
func (n *Network) Timeline() *timeline.Collector { return n.timeline }

// New creates a network on clk with a seeded RNG; identical seeds give
// identical packet fates.
func New(clk clock.Clock, seed int64) *Network {
	// inLoss and pairs stay nil until the first override: reads of a nil
	// map are fine, and most networks never install one.
	n := &Network{
		clk:   clk,
		rng:   lazyrand.New(seed),
		hosts: make(map[Addr]Host, 64),
	}
	n.latency = n.defaultLatency
	n.argClk, _ = clk.(clock.ArgScheduler)
	return n
}

// event is the network's one trace emit site. Records are attributed to
// probes by parsing the first question label from the wire payload,
// allocation-free.
func (n *Network) event(typ trace.Type, src, dst Addr, payload []byte) {
	if tr := n.trace; tr != nil {
		tr.Emit(trace.Event{Type: typ, Probe: trace.ProbeFromWire(payload),
			Src: string(src), Dst: string(dst)})
	}
}

// arrival is the record type of a packet's fate at its destination.
func arrival(dropped bool) trace.Type {
	if dropped {
		return trace.EvNetDrop
	}
	return trace.EvNetDeliver
}

// Clock returns the clock the network delivers on.
func (n *Network) Clock() clock.Clock { return n.clk }

// defaultLatency derives a stable base one-way delay in [2 ms, 52 ms] from
// the address pair, plus up to 15% jitter per packet.
func (n *Network) defaultLatency(src, dst Addr, rng *rand.Rand) time.Duration {
	h := fnv.New32a()
	h.Write([]byte(src))
	h.Write([]byte{'|'})
	h.Write([]byte(dst))
	base := 2*time.Millisecond + time.Duration(h.Sum32()%50_000)*time.Microsecond
	jitter := time.Duration(rng.Int63n(int64(base)/6 + 1))
	return base + jitter
}

// Host receives the UDP packets delivered to its address. m is the
// packet's copy of the sender's message, or nil when the sender handed
// over bytes only (Send); a host decodes payload only then. With m set,
// payload is its packed form if something needed the bytes, and nil
// otherwise. Neither outlives the call, and m is the host's to modify.
type Host interface {
	Deliver(src Addr, payload []byte, m *dnswire.Message)
}

// rawHost is a receiver of bytes only: Bind's func, ignoring the message.
// A func is pointer-shaped, so storing one as a Host allocates nothing.
// The network packs every message addressed to one on its arrival.
type rawHost func(src Addr, payload []byte)

func (f rawHost) Deliver(src Addr, payload []byte, _ *dnswire.Message) { f(src, payload) }

// BindHost attaches h at addr and returns the Port for sending from it
// by value, for callers that embed the port in their own struct. Binding
// an already-bound address replaces the host.
func (n *Network) BindHost(addr Addr, h Host) Port {
	if addr == "" {
		panic("netsim: empty address")
	}
	n.hosts[addr] = h
	return Port{net: n, addr: addr}
}

// Bind attaches recv, a receiver of bytes only, at addr and returns a
// Port for sending from it.
func (n *Network) Bind(addr Addr, recv func(src Addr, payload []byte)) *Port {
	p := n.BindHost(addr, rawHost(recv))
	return &p
}

// BindPort is Bind returning the Port by value.
func (n *Network) BindPort(addr Addr, recv func(src Addr, payload []byte)) Port {
	return n.BindHost(addr, rawHost(recv))
}

// Detach removes the host at addr; in-flight packets to it are counted as
// Dead on arrival.
func (n *Network) Detach(addr Addr) {
	delete(n.hosts, addr)
	delete(n.lazy, addr)
}

// LazyHost is a deferred host constructor registered with BindLazy. An
// interface (rather than a func value) lets callers register an existing
// object without allocating a bound-method closure per host.
type LazyHost interface {
	// Materialize builds the host and registers its real receiver via
	// BindHost or Bind (directly or through a client/resolver Attach).
	// Called at most once.
	Materialize()
}

// BindLazy defers a host's construction until the first packet is
// delivered to addr. Population builders use this so the many resolvers
// a cell describes but never exercises cost nothing: a lazy host is
// "bound" for liveness accounting (arrivals are never counted Dead) but
// allocates only on first traffic.
func (n *Network) BindLazy(addr Addr, h LazyHost) {
	if addr == "" {
		panic("netsim: empty address")
	}
	if n.lazy == nil {
		n.lazy = make(map[Addr]LazyHost, 64)
	}
	n.lazy[addr] = h
}

// SetInboundLoss sets the probability in [0,1] that a packet arriving at
// dst is dropped. This is the DDoS dial: the paper's emulation drops
// incoming DNS queries at the authoritative with iptables (§5.1).
func (n *Network) SetInboundLoss(dst Addr, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netsim: loss probability %v out of range", p))
	}
	if p == 0 {
		delete(n.inLoss, dst)
	} else {
		if n.inLoss == nil {
			n.inLoss = make(map[Addr]float64)
		}
		n.inLoss[dst] = p
	}
}

// InboundLoss returns the current inbound loss probability for dst.
func (n *Network) InboundLoss(dst Addr) float64 {
	return n.inLoss[dst]
}

// SetPairDelay fixes the one-way delay between a and b in both directions,
// overriding the latency model for that pair.
func (n *Network) SetPairDelay(a, b Addr, oneWay time.Duration) {
	if n.pairs == nil {
		n.pairs = make(map[[2]Addr]time.Duration)
	}
	n.pairs[[2]Addr{a, b}] = oneWay
	n.pairs[[2]Addr{b, a}] = oneWay
}

// AddTap registers an observer called for every packet arrival, including
// ones dropped by inbound loss, with the packet's bytes: while a byte tap
// is registered, the network packs every message it is handed at send.
func (n *Network) AddTap(tap func(Event)) {
	n.taps = append(n.taps, tap)
}

// AddMsgTap is AddTap for an observer that reads Event.Msg, and Payload
// only when Msg is nil: it forces no packing, so Payload is nil for a
// packet that was never packed.
func (n *Network) AddMsgTap(tap func(Event)) {
	n.msgTaps = append(n.msgTaps, tap)
}

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	return n.stats
}

// CollectMetrics folds the network's counters into s.
func (n *Network) CollectMetrics(s metrics.Scope) {
	st := n.Stats()
	s.Add("sent", st.Sent)
	s.Add("delivered", st.Delivered)
	s.Add("dropped", st.Dropped)
	s.Add("dead", st.Dead)
	s.Add("mtu_dropped", st.MTUDropped)
	s.Add("tcp_sent", st.TCPSent)
	s.Add("tcp_delivered", st.TCPDelivered)
	s.Add("tcp_dropped", st.TCPDropped)
	s.Add("tcp_dead", st.TCPDead)
	s.Add("tcp_connects", st.TCPConnects)
}

// packet is an in-flight delivery of either plane. Packets are recycled
// through the network's free list, buffer and message storage included,
// so the simulation's hottest path (one send per simulated query/response)
// allocates nothing per packet. A packet goes back from inside its own
// delivery callback, which is the recycle rule of recursive's putOQ.
type packet struct {
	net      *Network
	src, dst Addr
	payload  []byte // aliases buf, nil until packed; valid until recycled
	buf      []byte // owned storage, reused across packets
	// msg is the copy of the sender's message when hasMsg; its section
	// slices are owned storage like buf.
	msg    dnswire.Message
	hasMsg bool
	tcp    bool    // deliver on the TCP plane (arriveTCP)
	next   *packet // free-list link
}

// carry copies m into the packet: the header, and the four sections
// appended into the packet's own slices. Names and record data are
// shared with the sender, whose values do not change after a send.
func (p *packet) carry(m *dnswire.Message) {
	c := &p.msg
	c.Header = m.Header
	c.Questions = append(c.Questions[:0], m.Questions...)
	c.Answers = append(c.Answers[:0], m.Answers...)
	c.Authorities = append(c.Authorities[:0], m.Authorities...)
	c.Additionals = append(c.Additionals[:0], m.Additionals...)
	p.hasMsg = true
}

// bytes returns the packet's payload, packing its message into the
// packet's buffer first if it came unpacked.
func (p *packet) bytes() []byte {
	if p.payload == nil && p.hasMsg {
		p.buf = mustPack(&p.msg, p.buf[:0])
		p.payload = p.buf
	}
	return p.payload
}

// mustPack appends m packed to dst. A sender hands over only messages
// that pack (see Conn), so a failure is a broken sender.
func mustPack(m *dnswire.Message, dst []byte) []byte {
	wire, err := m.AppendPack(dst)
	if err != nil {
		panic("netsim: a message handed to SendMsg does not pack: " + err.Error())
	}
	return wire
}

// deliverPacket is the static arrival callback handed to ArgScheduler.
// The packet (and the payload and message it owns) is recycled only after
// the receiver ran: receivers may read both for the duration of the call
// but must not retain them.
func deliverPacket(arg any) {
	p := arg.(*packet)
	n := p.net
	if p.tcp {
		n.arriveTCP(p.src, p.dst, p.payload)
	} else {
		n.arrive(p)
	}
	p.src, p.dst, p.payload, p.hasMsg, p.tcp = "", "", nil, false, false
	p.next, n.pktFree = n.pktFree, p
}

// deliverAfter schedules the arrival at dst, on the UDP or TCP plane, of
// a packet holding a copy of payload, or of m when payload is nil; m is
// packed at once when bytes will be read (bytesAtSend).
func (n *Network) deliverAfter(delay time.Duration, src, dst Addr, payload []byte, m *dnswire.Message, tcp bool) {
	p := n.pktFree
	if p == nil {
		p = &packet{net: n}
	} else {
		n.pktFree, p.next = p.next, nil
	}
	p.src, p.dst, p.tcp = src, dst, tcp
	if payload != nil || m == nil {
		p.buf = append(p.buf[:0], payload...)
		p.payload = p.buf
	}
	if m != nil {
		p.carry(m)
		if n.bytesAtSend(dst) {
			p.bytes()
		}
	}
	if n.argClk == nil {
		n.clk.AfterFunc(delay, func() { deliverPacket(p) })
		return
	}
	n.argClk.AfterFuncArg(delay, deliverPacket, p)
}

// bytesAtSend reports whether a packet to dst must be packed when it is
// sent: a byte tap or the trace reads every packet's bytes, and a path MTU
// its size. The MTU map is read only when some destination has one.
func (n *Network) bytesAtSend(dst Addr) bool {
	return len(n.taps) > 0 || n.trace != nil || len(n.mtu) > 0 && n.mtu[dst] > 0
}

// Send schedules delivery of payload from src to dst after the modeled
// one-way delay. The loss decision is made at arrival time, so loss-rate
// changes (DDoS onset/end) apply to packets already in flight, as they
// would at a congested last-hop router.
//
// The network copies payload before returning: callers may reuse their
// buffer for the next send, and receivers must not retain the delivered
// slice past their callback. The receiver gets bytes only and decodes.
func (n *Network) Send(src, dst Addr, payload []byte) {
	n.SendMsg(src, dst, payload, nil)
}

// SendMsg is Send handing over m: the packet carries a copy of it, so
// neither the receiver nor a tap decodes. With a nil payload the network
// packs m only if something reads the packet's bytes; otherwise payload
// must be exactly m packed. m must pack (dnswire.Message.WireLenBound
// checks it without packing), and its names must not alias storage that
// changes before the packet arrives (see Conn). A nil m is Send.
func (n *Network) SendMsg(src, dst Addr, payload []byte, m *dnswire.Message) {
	// Anycast destinations resolve to the catchment-selected site; both
	// latency and the inbound loss decision are the site's.
	site, _ := n.anycastSite(src, dst)
	n.stats.Sent++
	n.deliverAfter(n.pairDelay(src, site), src, site, payload, m, false)
}

func (n *Network) pairDelay(src, dst Addr) time.Duration {
	if d, ok := n.pairs[[2]Addr{src, dst}]; ok {
		return d
	}
	return n.latency(src, dst, n.rng)
}

// arrive applies the inbound loss and the path MTU to p and hands it to
// its destination's host and to the taps. A packet still unpacked is
// packed here if a reader of bytes appeared while it was in flight, or
// its destination is a raw host.
func (n *Network) arrive(p *packet) {
	src, dst := p.src, p.dst
	loss := n.inLoss[dst]
	dropped := loss > 0 && n.rng.Float64() < loss
	// Datagrams over the path MTU never arrive: the collapsed model of
	// fragmentation loss (SetPathMTU). Checked after the loss draw so
	// enabling an MTU does not shift the RNG stream of lossy paths.
	if mtu := n.mtu[dst]; !dropped && mtu > 0 && len(p.bytes()) > mtu {
		dropped = true
		n.stats.MTUDropped++
	}
	recv := n.hosts[dst]
	if recv == nil && !dropped && n.lazy != nil {
		if h := n.lazy[dst]; h != nil {
			// The host registers its receiver via Bind. Dropped packets
			// skip materialization — a drop never reaches the host either
			// way.
			delete(n.lazy, dst)
			h.Materialize()
			recv = n.hosts[dst]
		}
	}
	switch {
	case dropped:
		n.stats.Dropped++
	case recv == nil:
		n.stats.Dead++
	default:
		n.stats.Delivered++
	}
	if _, raw := recv.(rawHost); raw || len(n.taps) > 0 || n.trace != nil {
		p.bytes()
	}

	n.event(arrival(dropped), src, dst, p.payload)
	var m *dnswire.Message
	if p.hasMsg {
		m = &p.msg
	}
	ev := Event{Time: n.clk.Now(), Src: src, Dst: dst, Payload: p.payload, Msg: m, Dropped: dropped}
	for _, tap := range n.taps {
		tap(ev)
	}
	for _, tap := range n.msgTaps {
		tap(ev)
	}
	if !dropped && recv != nil {
		recv.Deliver(src, p.payload, m)
	}
}

// Port is a bound address on the network.
type Port struct {
	net  *Network
	addr Addr
}

// Addr returns the bound address.
func (p *Port) Addr() Addr { return p.addr }

// Send transmits payload from this port's address to dst.
func (p *Port) Send(dst Addr, payload []byte) {
	p.net.SendMsg(p.addr, dst, payload, nil)
}

// SendMsg transmits m, with payload its packed form or nil (see
// Network.SendMsg).
func (p *Port) SendMsg(dst Addr, payload []byte, m *dnswire.Message) {
	p.net.SendMsg(p.addr, dst, payload, m)
}

// Conn is the transport contract the DNS engines program against: the
// simulator's Port implements it, and cmd/ wraps real UDP sockets in it.
// Send and SendMsg must copy (or otherwise finish with) what they are
// handed before returning, so callers can recycle one buffer and one
// message across sends; Network.Send and UDP writes both do.
//
// SendMsg(dst, nil, m) hands over a message and means "the transport
// packs m if it needs bytes": a socket or the TCP plane packs it at once,
// the simulated UDP plane carries a copy and packs only for a reader of
// bytes. The sender checks that m packs (dnswire.Message.WireLenBound)
// before handing it over. A sender that packed anyway (a TC=1 decision
// read the size) passes the bytes too, and they must be m packed. The
// packet's copy of m is shallow: m's names and record data must not
// change before the packet arrives. So a reply built from a query decoded
// with dnswire.UnpackBorrow, whose names alias pooled storage, goes as
// bytes with Send.
type Conn interface {
	Addr() Addr
	Send(dst Addr, payload []byte)
	SendMsg(dst Addr, payload []byte, m *dnswire.Message)
}

var _ Conn = (*Port)(nil)
