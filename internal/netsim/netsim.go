// Package netsim is a message-level network simulator. Hosts are identified
// by string addresses; packets are delivered through a clock.Clock with a
// deterministic per-pair latency model, per-host inbound loss (the knob used
// to emulate volumetric DDoS, mirroring the paper's random iptables drop of
// queries arriving at the authoritatives), and taps that observe traffic
// before the drop decision (the paper measures queries "before they are
// dropped by our simulated DDoS", §6.1).
//
// A packet is a dnswire.Message, of which it carries a packet-owned copy
// (SendMsg), and the network is the only place on the simulated path that
// converts between message and bytes. It packs a message only for a
// reader of bytes: at send for a byte tap (AddTap), at arrival for a raw
// host (Bind) or a byte tap added while the packet was in flight. It
// decodes only bytes that a raw sender handed to Send, once, for
// the first message reader; bytes that do not decode reach no Host and no
// message tap.
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
// loss decision is applied. Msg is the packet's message: always set for a
// message tap (AddMsgTap), nil for a byte tap when the packet is bytes
// nothing decoded. Payload is the packet's bytes: always set for a byte
// tap (AddTap), nil for a message tap when the packet was never packed.
// Neither outlives the tap call.
type Event struct {
	Time    time.Time
	Src     Addr
	Dst     Addr
	Payload []byte
	Msg     *dnswire.Message
	Dropped bool
}

// Stats are cumulative network counters.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // lost to inbound loss
	Dead      int64 // destination not attached
	// The TCP plane (tcp.go).
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
// engine in this repository hands its messages over with SendMsg, and
// none packs or decodes a simulated packet.
type Network struct {
	clk clock.Clock
	rng *rand.Rand
	// slots indexes hosts: every address the network has been told of has
	// one record, which it keeps for the network's life.
	slots    map[Addr]int32
	hosts    [][]host                   // chunks of hostChunk records, see slot
	pairs    map[[2]int32]time.Duration // fixed delays, see SetPairDelay
	tcpConns map[[2]int32]time.Time     // established pair -> idle expiry
	taps     []func(Event)              // byte taps: every packet is packed at send
	msgTaps  []func(Event)
	// trace and timeline are the cell's observers (see SetTrace).
	trace    *trace.Buffer
	timeline *timeline.Timeline
	stats    Stats
	// pktFree recycles in-flight packets of both planes (see packet).
	pktFree *packet
	// shared holds one value per type handed out by Shared.
	shared []any
}

// host is the record of one address: what receives there on each plane,
// and the dials that apply to packets arriving there. What only some
// addresses use (the TCP plane, an anycast group) is in extra, set on
// first use, so a record is 48 bytes.
type host struct {
	udp   Host
	lazy  LazyHost // pending constructor, see BindLazy
	loss  float64  // UDP inbound loss, see SetInboundLoss
	extra *hostExtra
}

// hostExtra is the side record of an address that binds the TCP plane,
// has a TCP loss dial or is an anycast service address.
type hostExtra struct {
	tcp     func(src Addr, m *dnswire.Message)
	tcpLoss float64
	anycast *anycastGroup // see BindAnycast
}

// noHost and noExtra stand for a record that is not there: nothing
// receives and no dial applies. Neither is ever written.
var (
	noHost  host
	noExtra hostExtra
)

// x returns h's side record, noExtra if it has none, for reading.
func (h *host) x() *hostExtra {
	if h.extra != nil {
		return h.extra
	}
	return &noExtra
}

// hostChunk is how many records the table allocates at once. Records are
// never moved or removed, so a packet's slot and a *host held across a
// Materialize stay valid, and no growth slack stays live: with a flat
// slice TestResolverBytes read 973-981 B per idle resolver, 968 chunked.
const hostChunk = 128

// slot returns addr's slot, adding an empty record on first sight.
func (n *Network) slot(addr Addr) int32 {
	if i, ok := n.slots[addr]; ok {
		return i
	}
	i := int32(len(n.slots))
	if i%hostChunk == 0 {
		n.hosts = append(n.hosts, make([]host, hostChunk))
	}
	n.slots[addr] = i
	return i
}

// host returns the record of slot i.
func (n *Network) host(i int32) *host { return &n.hosts[i/hostChunk][i%hostChunk] }

// record returns addr's record, added on first sight.
func (n *Network) record(addr Addr) *host { return n.host(n.slot(addr)) }

// extra returns addr's side record, added with its record on first use.
func (n *Network) extra(addr Addr) *hostExtra {
	h := n.record(addr)
	if h.extra == nil {
		h.extra = new(hostExtra)
	}
	return h.extra
}

// find returns addr's slot, -1 if it has no record.
func (n *Network) find(addr Addr) int32 {
	if i, ok := n.slots[addr]; ok {
		return i
	}
	return -1
}

// dest returns the record of p's destination, noHost if there is none.
// A packet sent to an address with no record adds none: it takes the
// record the address has gained by its arrival, if any.
func (n *Network) dest(p *packet) *host {
	if p.slot < 0 {
		if p.slot = n.find(p.dst); p.slot < 0 {
			return &noHost
		}
	}
	return n.host(p.slot)
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

// SetTimeline installs the cell's run timeline (nil disables
// collection); same ownership rule as SetTrace.
func (n *Network) SetTimeline(t *timeline.Timeline) { n.timeline = t }

// Trace and Timeline return the cell's observers, nil when off.
func (n *Network) Trace() *trace.Buffer         { return n.trace }
func (n *Network) Timeline() *timeline.Timeline { return n.timeline }

// New creates a network on clk with a seeded RNG; identical seeds give
// identical packet fates.
func New(clk clock.Clock, seed int64) *Network {
	return &Network{
		clk:      clk,
		rng:      lazyrand.New(seed),
		slots:    make(map[Addr]int32, 64),
		pairs:    make(map[[2]int32]time.Duration),
		tcpConns: make(map[[2]int32]time.Time),
	}
}

// event is the network's one trace emit site. Records are attributed to
// probes by the first label of m's first question (0 for a nil m).
func (n *Network) event(typ trace.Type, src, dst Addr, m *dnswire.Message) {
	if tr := n.trace; tr != nil {
		tr.Emit(trace.Event{Type: typ, Probe: trace.ProbeFromMsg(m),
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

// delay returns p's one-way delay: its pair's fixed delay (SetPairDelay),
// or else a stable base in [2 ms, 52 ms] derived from the address pair
// plus up to 15% jitter per packet.
func (n *Network) delay(p *packet) time.Duration {
	if len(n.pairs) > 0 {
		if s, ok := n.slots[p.src]; ok {
			if d, ok := n.pairs[[2]int32{s, p.slot}]; ok {
				return d
			}
		}
	}
	h := fnv.New32a()
	h.Write([]byte(p.src))
	h.Write([]byte{'|'})
	h.Write([]byte(p.dst))
	base := 2*time.Millisecond + time.Duration(h.Sum32()%50_000)*time.Microsecond
	jitter := time.Duration(n.rng.Int63n(int64(base)/6 + 1))
	return base + jitter
}

// Host receives the UDP packets delivered to its address: m is the
// packet's message, the copy of the sender's or the decode of its bytes.
// It does not outlive the call, and it is the host's to modify.
type Host interface {
	Deliver(src Addr, m *dnswire.Message)
}

// rawHost is a receiver of bytes: Bind's func. A func is pointer-shaped,
// so storing one as a Host allocates nothing. arrive hands it the
// packet's bytes, packing a message on its arrival, and never calls
// Deliver.
type rawHost func(src Addr, payload []byte)

func (rawHost) Deliver(Addr, *dnswire.Message) {}

// BindHost attaches h at addr and returns the Port for sending from it
// by value, for callers that embed the port in their own struct. Binding
// an already-bound address replaces the host.
func (n *Network) BindHost(addr Addr, h Host) Port {
	if addr == "" {
		panic("netsim: empty address")
	}
	n.record(addr).udp = h
	return Port{net: n, addr: addr}
}

// Bind attaches recv, a receiver of bytes only, at addr and returns a
// Port for sending from it.
func (n *Network) Bind(addr Addr, recv func(src Addr, payload []byte)) *Port {
	p := n.BindHost(addr, rawHost(recv))
	return &p
}

// Detach removes the host at addr; in-flight packets to it are counted as
// Dead on arrival.
func (n *Network) Detach(addr Addr) {
	if i, ok := n.slots[addr]; ok {
		h := n.host(i)
		h.udp, h.lazy = nil, nil
	}
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
	n.record(addr).lazy = h
}

// materialize runs h's pending constructor, if any: both planes call it
// for a packet that arrives undropped where they have no receiver. A drop
// never reaches the host, so it builds nothing.
func (h *host) materialize() {
	if l := h.lazy; l != nil {
		h.lazy = nil
		l.Materialize()
	}
}

// SetInboundLoss sets the probability in [0,1] that a packet arriving at
// dst is dropped. This is the DDoS dial: the paper's emulation drops
// incoming DNS queries at the authoritative with iptables (§5.1).
func (n *Network) SetInboundLoss(dst Addr, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netsim: loss probability %v out of range", p))
	}
	n.record(dst).loss = p
}

// InboundLoss returns the current inbound loss probability for dst.
func (n *Network) InboundLoss(dst Addr) float64 {
	if i, ok := n.slots[dst]; ok {
		return n.host(i).loss
	}
	return 0
}

// SetPairDelay fixes the one-way delay between a and b in both directions,
// overriding the latency model for that pair.
func (n *Network) SetPairDelay(a, b Addr, oneWay time.Duration) {
	i, j := n.slot(a), n.slot(b)
	n.pairs[[2]int32{i, j}] = oneWay
	n.pairs[[2]int32{j, i}] = oneWay
}

// AddTap registers an observer called for every packet arrival, including
// ones dropped by inbound loss, with the packet's bytes: while a byte tap
// is registered, the network packs every message it is handed at send.
func (n *Network) AddTap(tap func(Event)) {
	n.taps = append(n.taps, tap)
}

// AddMsgTap is AddTap for an observer that reads Event.Msg: it forces no
// packing, so Payload is nil for a packet that was never packed, and it
// is not called for bytes that do not decode.
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
	src, dst Addr   // dst is the anycast site for a service address
	slot     int32  // dst's record, -1 while it has none (see dest)
	payload  []byte // aliases buf, nil until packed; valid until recycled
	buf      []byte // owned storage, reused across packets
	// msg is the packet's message when hasMsg: the copy of the sender's,
	// or the decode of payload. Its section slices are owned storage like
	// buf.
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
// packet's buffer first if it came unpacked: the simulated path's one
// pack site. A sender hands over only messages that pack (see Conn), so
// a failure is a broken sender.
func (p *packet) bytes() []byte {
	if p.payload == nil && p.hasMsg {
		wire, err := p.msg.AppendPack(p.buf[:0])
		if err != nil {
			panic("netsim: a message handed to SendMsg does not pack: " + err.Error())
		}
		p.buf, p.payload = wire, wire
	}
	return p.payload
}

// message returns the packet's message, decoding the bytes of a raw
// sender: the simulated path's one decode site. It returns nil for bytes
// that do not decode. arrive calls it once per packet.
func (p *packet) message() *dnswire.Message {
	if !p.hasMsg {
		p.hasMsg = dnswire.UnpackInto(&p.msg, p.payload) == nil
	}
	if !p.hasMsg {
		return nil
	}
	return &p.msg
}

// newPacket takes a packet from src to dst, whose record is slot, off the
// free list.
func (n *Network) newPacket(src, dst Addr, slot int32, tcp bool) *packet {
	p := n.pktFree
	if p == nil {
		p = &packet{net: n}
	} else {
		n.pktFree, p.next = p.next, nil
	}
	p.src, p.dst, p.slot, p.tcp = src, dst, slot, tcp
	return p
}

// deliverPacket is the static arrival callback handed to AfterFuncRef.
// The packet (and the payload and message it owns) is recycled only after
// the receiver ran: receivers may read both for the duration of the call
// but must not retain them.
func deliverPacket(arg any) {
	p := arg.(*packet)
	n := p.net
	if p.tcp {
		n.arriveTCP(p)
	} else {
		n.arrive(p)
	}
	p.src, p.dst, p.payload, p.hasMsg, p.tcp = "", "", nil, false, false
	p.next, n.pktFree = n.pktFree, p
}

// Send schedules delivery of payload from src to dst after the modeled
// one-way delay. The loss decision is made at arrival time, so loss-rate
// changes (DDoS onset/end) apply to packets already in flight, as they
// would at a congested last-hop router.
//
// The network copies payload before returning: callers may reuse their
// buffer for the next send, and receivers must not retain the delivered
// slice past their callback. A raw host receives the bytes; a Host
// receives their decode, and nothing when they do not decode.
func (n *Network) Send(src, dst Addr, payload []byte) {
	p := n.route(src, dst)
	p.buf = append(p.buf[:0], payload...)
	p.payload = p.buf
	n.clk.AfterFuncRef(n.delay(p), deliverPacket, p)
}

// SendMsg is Send handing over m: the packet carries a copy of it, so
// neither a Host nor a message tap decodes, and the network packs it only
// for a reader of bytes. m must pack (dnswire.Message.WireLenBound checks
// it without packing), and its names must not alias storage that changes
// before the packet arrives (see Conn).
func (n *Network) SendMsg(src, dst Addr, m *dnswire.Message) {
	p := n.route(src, dst)
	p.carry(m)
	// A byte tap reads every packet's bytes: packed at send, as m was
	// handed over.
	if len(n.taps) > 0 {
		p.bytes()
	}
	n.clk.AfterFuncRef(n.delay(p), deliverPacket, p)
}

// route counts a UDP send from src and returns its packet, to dst or for
// an anycast address to the catchment-selected site, whose latency and
// inbound loss then apply.
func (n *Network) route(src, dst Addr) *packet {
	n.stats.Sent++
	i := n.find(dst)
	if i < 0 {
		return n.newPacket(src, dst, i, false)
	}
	if g := n.host(i).x().anycast; g != nil {
		k := g.catchment(src)
		dst, i = g.sites[k], g.slots[k]
	}
	return n.newPacket(src, dst, i, false)
}

// arrive applies the inbound loss to p and hands it to the taps and to
// its destination: a raw host gets the bytes, packed here if no reader
// needed them before, and a Host the message, decoded here if the packet
// came as bytes.
func (n *Network) arrive(p *packet) {
	h := n.dest(p)
	src, dst := p.src, p.dst
	dropped := h.loss > 0 && n.rng.Float64() < h.loss
	if !dropped && h.udp == nil {
		h.materialize()
	}
	recv := h.udp
	switch {
	case dropped:
		n.stats.Dropped++
	case recv == nil:
		n.stats.Dead++
	default:
		n.stats.Delivered++
	}
	deliver := !dropped && recv != nil
	raw, isRaw := recv.(rawHost)

	var m *dnswire.Message
	if p.hasMsg || n.trace != nil || len(n.msgTaps) > 0 || deliver && !isRaw {
		m = p.message()
	}
	if len(n.taps) > 0 || deliver && isRaw {
		p.bytes()
	}
	n.event(arrival(dropped), src, dst, m)
	ev := Event{Time: n.clk.Now(), Src: src, Dst: dst, Payload: p.payload, Msg: m, Dropped: dropped}
	for _, tap := range n.taps {
		tap(ev)
	}
	if m != nil {
		for _, tap := range n.msgTaps {
			tap(ev)
		}
	}
	switch {
	case !deliver:
	case isRaw:
		raw(src, p.payload)
	case m != nil:
		recv.Deliver(src, m)
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
	p.net.Send(p.addr, dst, payload)
}

// SendMsg transmits m from this port's address to dst (see
// Network.SendMsg).
func (p *Port) SendMsg(dst Addr, m *dnswire.Message) {
	p.net.SendMsg(p.addr, dst, m)
}

// Conn is the transport contract the DNS engines program against: the
// simulator's Port and TCPPort implement it, and cmd/ wraps real UDP
// sockets in it. SendMsg must finish with m before returning, so callers
// can recycle one message across sends: a socket packs it at once, the
// simulated network carries a copy and packs only for a reader of bytes.
// The sender checks that m packs (dnswire.Message.WireLenBound) before
// handing it over. The packet's copy of m is shallow: m's names and
// record data must not change before the packet arrives.
type Conn interface {
	Addr() Addr
	SendMsg(dst Addr, m *dnswire.Message)
}

var _ Conn = (*Port)(nil)
