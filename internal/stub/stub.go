// Package stub implements the client side of DNS resolution: a minimal
// stub resolver that sends one query to a recursive resolver and waits for
// the answer with a timeout, like the RIPE Atlas probes the paper measures
// from (5 s timeout, reporting "no answer" on expiry, §3.2).
package stub

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// ErrTimeout is reported when no response arrives within the deadline.
var ErrTimeout = errors.New("stub: query timed out")

// ErrTruncated is reported when the response came back TC=1 and TCP
// fallback was disabled (or unavailable): the data sections were
// stripped to fit the UDP limit, so there is no usable answer.
var ErrTruncated = errors.New("stub: response truncated, no TCP fallback")

// DefaultTimeout matches the Atlas probe DNS timeout.
const DefaultTimeout = 5 * time.Second

// Result is the outcome of one query.
type Result struct {
	// Msg is the response, nil on timeout: the packet's message, or off a
	// real socket the scratch message the bytes were decoded into. Either is
	// valid until the callback returns, then reused. A callback that needs
	// it longer copies what it needs.
	Msg *dnswire.Message
	// Err is non-nil on timeout or an unusable truncated response.
	Err error
	// RTT is the time from send to response (or to the timeout).
	RTT time.Duration
	// Server is the recursive that was queried.
	Server netsim.Addr
	// Truncated marks a TC=1 response that could not be retried over
	// TCP. Msg still carries the stripped response for inspection, but
	// it must never be classified as an answer.
	Truncated bool
	// TCP marks an answer obtained over the TCP plane (a TC fallback).
	TCP bool
}

// Config tunes a Client.
type Config struct {
	// Timeout per attempt; default DefaultTimeout.
	Timeout time.Duration
	// Retries re-sends the query on timeout this many extra times.
	// Atlas probes use 0.
	Retries int
	// EDNSSize, when non-zero, advertises this EDNS0 UDP payload size on
	// queries (RFC 6891), raising the server's truncation threshold
	// above the classic 512 octets.
	EDNSSize uint16
	// TCPFallback retries a TC=1 response over the simulated TCP plane
	// (RFC 7766) instead of reporting it as truncated. Requires a TCP
	// transport (Attach binds one).
	TCPFallback bool
}

// Client is a stub resolver bound to one address.
type Client struct {
	clk     clock.Clock
	cfg     Config
	conn    netsim.Conn
	tcpConn netsim.Conn
	nextID  uint16
	trace   *trace.Buffer
	// inflight lists the queries awaiting an answer, linked through
	// pending.next: a probe has at most a few in flight, so a scan by ID
	// needs no map.
	inflight *pending
	// ws is the working set this client borrows (see work).
	ws *workingSet
}

// workingSet is the scratch and the free list of every client on one
// network (netsim.Shared): the network's engines run one dispatch at a
// time, so one of each serves every query. It is the only place the
// package declares dnswire.Message fields (make obs-guard).
type workingSet struct {
	// qMsg is the query sent (Conn.SendMsg copies), respMsg the decode
	// target of responses read off a real socket (Receive).
	qMsg    dnswire.Message
	respMsg dnswire.Message
	// free recycles pending records (see release).
	free *pending
}

// work returns the client's working set: the network's, from Attach, or
// for a client that never attached (SetConn) its own, made on first use.
func (c *Client) work() *workingSet {
	if c.ws == nil {
		c.ws = new(workingSet)
	}
	return c.ws
}

type pending struct {
	c       *Client
	id      uint16
	span    uint16 // first attempt's ID; stable across retries for tracing
	server  netsim.Addr
	sentAt  time.Time
	timer   clock.TimerRef
	retries int
	attempt int
	tcp     bool // current attempt rides the TCP plane (TC fallback)
	name    string
	qtype   dnswire.Type
	started time.Time
	h       Handler
	next    *pending // in-flight or free-list link
}

// Handler receives a query's outcome, exactly once. A caller with
// per-query state implements it on that state, so Do builds no closure;
// Query adapts a plain func.
type Handler interface {
	Done(Result)
}

type handlerFunc func(Result)

func (f handlerFunc) Done(res Result) { f(res) }

// release retires p once its handler has run, under the recycle rule of
// recursive's putOQ: back to the free list when p's timer is done (it
// fired, or Stop() reported true), otherwise cleared and left to the GC
// for the late attemptTimeout to find empty.
func (c *Client) release(p *pending, timerDone bool) {
	*p = pending{}
	if timerDone {
		ws := c.work()
		p.next, ws.free = ws.free, p
	}
}

// New creates a stub client on clk.
func New(clk clock.Clock, cfg Config) *Client {
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	return &Client{clk: clk, cfg: cfg}
}

// Attach binds the client at addr on the simulated network; with
// Config.TCPFallback armed it binds the TCP plane too, so TC=1 fallback
// works out of the box. The client inherits the network's trace buffer
// and working set.
func (c *Client) Attach(net *netsim.Network, addr netsim.Addr) {
	c.trace = net.Trace()
	c.ws = netsim.Shared[workingSet](net)
	port := net.BindHost(addr, c)
	c.conn = &port
	if c.cfg.TCPFallback {
		c.tcpConn = net.BindTCP(addr, c.Deliver)
	}
}

// SetConn binds the client to an existing transport.
func (c *Client) SetConn(conn netsim.Conn) { c.conn = conn }

// headerLen is the fixed DNS header size: the ID and the QR bit are in
// it, and nothing shorter decodes.
const headerLen = 12

// Deliver is the simulated network's entry point, on both planes
// (netsim.Host, and BindTCP's receiver): responses are matched by ID,
// which is transport-agnostic.
func (c *Client) Deliver(src netsim.Addr, m *dnswire.Message) {
	if p := c.awaiting(src, m.ID); p != nil && m.Response {
		c.complete(p, src, m)
	}
}

// Receive is the real-socket entry point (udprun.Conn.Serve). A response
// is decoded into the scratch message only when its ID is in flight to
// src, so a late or spoofed one costs no decode, and a malformed one
// leaves its query in flight.
func (c *Client) Receive(src netsim.Addr, payload []byte) {
	if len(payload) < headerLen || payload[2]&0x80 == 0 {
		return
	}
	p := c.awaiting(src, binary.BigEndian.Uint16(payload))
	if p == nil {
		return
	}
	if m := &c.work().respMsg; dnswire.UnpackInto(m, payload) == nil {
		c.complete(p, src, m)
	}
}

// awaiting returns the query in flight to src under id, nil if none.
func (c *Client) awaiting(src netsim.Addr, id uint16) *pending {
	if p := c.lookup(id); p != nil && p.server == src {
		return p
	}
	return nil
}

// lookup returns the query in flight under id, nil if none.
func (c *Client) lookup(id uint16) *pending {
	for p := c.inflight; p != nil; p = p.next {
		if p.id == id {
			return p
		}
	}
	return nil
}

// take unlinks p from the in-flight list and reports whether it was there.
func (c *Client) take(p *pending) bool {
	for l := &c.inflight; *l != nil; l = &(*l).next {
		if *l == p {
			*l, p.next = p.next, nil
			return true
		}
	}
	return false
}

// complete ends p's attempt with its response m.
func (c *Client) complete(p *pending, src netsim.Addr, m *dnswire.Message) {
	c.take(p)
	stopped := p.timer.Stop()
	if m.Truncated && !p.tcp {
		// TC=1 is not an answer: the server stripped the data sections to
		// fit the UDP limit. Retry over TCP, or report it as truncated —
		// never hand it to the callback as a final response.
		if c.cfg.TCPFallback && c.tcpConn != nil {
			c.event(trace.EvTCPFallback, p, 0, "", p.server)
			p.tcp = true
			c.sendAttempt(p)
			return
		}
		c.event(trace.EvTruncate, p, 0, src, "")
		p.h.Done(Result{Msg: m, Err: ErrTruncated, Truncated: true,
			RTT: c.clk.Now().Sub(p.started), Server: src})
		c.release(p, stopped)
		return
	}
	c.event(trace.EvStubAnswer, p, uint32(m.RCode), src, "")
	p.h.Done(Result{Msg: m, RTT: c.clk.Now().Sub(p.started), Server: src, TCP: p.tcp})
	c.release(p, stopped)
}

// event is the client's one trace emit site: a record of the given type
// for query p (B carries its span ID), a no-op with tracing off.
func (c *Client) event(typ trace.Type, p *pending, a uint32, src, dst netsim.Addr) {
	tr := c.trace
	if tr == nil {
		return
	}
	ev := trace.Event{Type: typ, Probe: trace.ProbeFromName(p.name), A: a,
		B: uint32(p.span), Name: p.name, Src: string(src), Dst: string(dst)}
	if typ == trace.EvStubAnswer && a == uint32(dnswire.RCodeServFail) {
		tr.Force(ev) // terminal failures are never sampled out
	} else {
		tr.Emit(ev)
	}
}

// Query sends a recursive query for (name, qtype) to server. cb runs
// exactly once with the response or a timeout error.
func (c *Client) Query(server netsim.Addr, name string, qtype dnswire.Type, cb func(Result)) {
	c.Do(server, name, qtype, handlerFunc(cb))
}

// Do is Query with the outcome delivered to h.
func (c *Client) Do(server netsim.Addr, name string, qtype dnswire.Type, h Handler) {
	ws := c.work()
	p := ws.free
	if p == nil {
		p = new(pending)
	} else {
		ws.free, p.next = p.next, nil
	}
	p.c, p.server, p.retries = c, server, c.cfg.Retries
	p.name, p.qtype, p.started, p.h = name, qtype, c.clk.Now(), h
	c.sendAttempt(p)
}

func (c *Client) sendAttempt(p *pending) {
	for {
		c.nextID++
		if c.nextID == 0 {
			// ID 0 is the "never in flight" sentinel and must be skipped
			// on every wraparound, including mid-busy-scan.
			continue
		}
		if c.lookup(c.nextID) == nil {
			break
		}
	}
	p.id = c.nextID
	p.sentAt = c.clk.Now()
	p.next, c.inflight = c.inflight, p
	p.attempt++
	if p.attempt == 1 {
		p.span = p.id
	}
	if p.attempt == 1 {
		c.event(trace.EvStubIssue, p, uint32(p.qtype), "", p.server)
	} else {
		c.event(trace.EvStubRetry, p, uint32(p.attempt), "", p.server)
	}

	ws := c.work()
	q := &ws.qMsg
	q.ResetQuery(p.id, p.name, p.qtype)
	if c.cfg.EDNSSize > 0 {
		q.AddEDNS(c.cfg.EDNSSize, false)
	}
	// The query goes as its message (the transport packs it if it needs
	// bytes); the bound refuses exactly what packing would.
	if _, err := q.WireLenBound(); err != nil {
		c.take(p)
		p.h.Done(Result{Err: err, Server: p.server})
		c.release(p, true) // no timer armed for this attempt
		return
	}
	p.timer = c.clk.AfterFuncRef(c.cfg.Timeout, attemptTimeout, p)
	conn := c.conn
	if p.tcp {
		conn = c.tcpConn
	}
	conn.SendMsg(p.server, q)
}

// attemptTimeout is the static timeout callback armed by sendAttempt. A
// record the answer retired first (see release) is empty or no longer in
// flight.
func attemptTimeout(arg any) {
	p := arg.(*pending)
	c := p.c
	if c == nil || !c.take(p) {
		return
	}
	if p.retries > 0 {
		p.retries--
		c.sendAttempt(p)
		return
	}
	// Timeouts stay behind sampling: under a 90%-loss attack most queries
	// expire, and forcing them all would defeat the sampling memory
	// bound. SERVFAILs (rare, terminal) are forced.
	c.event(trace.EvStubTimeout, p, uint32(p.attempt), "", p.server)
	p.h.Done(Result{Err: ErrTimeout, RTT: c.clk.Now().Sub(p.started), Server: p.server})
	c.release(p, true)
}
