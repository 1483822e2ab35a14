// Package udprun runs the DNS engines on real UDP sockets. The engines
// are written against clock.Clock and netsim.Conn and are not internally
// locked (the simulator is single-threaded), so this package serializes
// everything that touches an engine — packet handlers, timer callbacks,
// posted functions — with one lock owned by a Loop. There is no loop
// goroutine: a packet handler runs on the goroutine that read the packet
// and a timer callback on the runtime's timer goroutine, each holding the
// lock, so a query costs no hand-off between goroutines and a backlog
// waits in the kernel's socket buffer rather than in a queue of copies.
//
// On Linux the reader skips the runtime's network poller: Serve sleeps in
// a blocking recvfrom(2) on its own thread, so a packet costs one receive
// syscall, not a failed read, a park, an epoll_wait, a wake-up and a
// second read; Close wakes it with shutdown(2). The costs: the reader
// keeps its P (scheduler processor) while it sleeps until the runtime's
// monitor takes it back, so a timer or a Post can run up to ~10 ms late;
// a client and a server in one process ping-pong more slowly, as they no
// longer share a poller thread; and Send blocks too, while the socket's
// send buffer is full. Other systems keep the poller read.
//
// Two rules follow from the lock. A Serve handler gets a slice of the
// reader's one buffer, valid only until the handler returns (the
// netsim.Conn contract; every dnswire decoder copies what it keeps). And
// a callback already holds the lock, so it must not call Post, which
// would wait for itself; it calls the function directly instead.
//
// The socket speaks netip.AddrPort and the engines speak "ip:port"
// strings; a Conn translates between them through two bounded memos, so
// neither direction parses or formats an address per packet.
package udprun

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// Loop serializes callbacks with one lock.
type Loop struct {
	mu   sync.Mutex
	once sync.Once
	done chan struct{}
}

// NewLoop creates a loop.
func NewLoop() *Loop {
	return &Loop{done: make(chan struct{})}
}

// enter takes the loop lock for one callback. After Close it reports
// false and the lock is not held.
func (l *Loop) enter() bool {
	l.mu.Lock()
	select {
	case <-l.done:
		l.mu.Unlock()
		return false
	default:
		return true
	}
}

// Post runs f under the loop lock on the calling goroutine, once every
// callback in progress has returned; after Close f is dropped. It is for
// callers outside the loop (a TCP connection's goroutine, main) and must
// not be called from inside a callback.
func (l *Loop) Post(f func()) {
	if l.enter() {
		defer l.mu.Unlock()
		f()
	}
}

// Run blocks until Close.
func (l *Loop) Run() { <-l.done }

// Close stops the loop: callbacks that have not started are dropped. It
// does not wait for one in progress.
func (l *Loop) Close() { l.once.Do(func() { close(l.done) }) }

// Clock is a wall clock whose timer callbacks run under a Loop's lock, so
// they are serialized with packet handling.
type Clock struct {
	Loop *Loop
}

// Now implements clock.Clock.
func (c Clock) Now() time.Time { return time.Now() }

// AfterFuncRef implements clock.Clock; f(arg) runs under the loop lock,
// on the timer's goroutine, when the timer fires.
func (c Clock) AfterFuncRef(d time.Duration, f func(any), arg any) clock.TimerRef {
	l := c.Loop
	return clock.RefOf(time.AfterFunc(d, func() {
		if l.enter() {
			defer l.mu.Unlock()
			f(arg)
		}
	}))
}

// maxPeers caps each of a Conn's address memos. A full memo is
// emptied and refilled by the peers still talking, so a flood of spoofed
// sources costs a format per packet (as every packet used to) and pins
// nothing.
const maxPeers = 1024

// Conn is a netsim.Conn over a real UDP socket. Peer addresses are
// "ip:port" strings.
type Conn struct {
	pc     *net.UDPConn
	rc     syscall.RawConn // pc's descriptor, for Serve and Close
	loop   *Loop
	closed atomic.Bool // set by Close before it wakes Serve

	// mu guards the memos: Send is called from loop callbacks but also
	// from goroutines that own no callback (tests, a client's main).
	mu    sync.Mutex
	srcs  map[netip.AddrPort]netsim.Addr // what Serve hands its handler
	dsts  map[netsim.Addr]netip.AddrPort // what Send writes to
	zones map[int]string                 // v6 scope id to zone, made by the Linux reader

	// wmu guards wbuf, SendMsg's packing buffer, for the same reason.
	wmu  sync.Mutex
	wbuf []byte
}

// Listen binds a UDP socket on listen (e.g. ":5300" or "127.0.0.1:0").
func Listen(listen string, loop *Loop) (*Conn, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("udprun: resolve %q: %w", listen, err)
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprun: listen %q: %w", listen, err)
	}
	rc, _ := pc.SyscallConn() // fails only for a nil conn
	return &Conn{
		pc: pc, rc: rc, loop: loop,
		srcs: make(map[netip.AddrPort]netsim.Addr),
		dsts: make(map[netsim.Addr]netip.AddrPort),
	}, nil
}

// Addr implements netsim.Conn with the socket's local address.
func (c *Conn) Addr() netsim.Addr { return netsim.Addr(c.pc.LocalAddr().String()) }

// srcAddr returns the engines' name for a packet source: exactly
// (*net.UDPAddr).String() of the same endpoint — dotted quad for a v4 or
// 4-in-6 source, bracketed with its zone for v6 — because the stub and
// the resolver match a reply by comparing it with the string they sent to.
func (c *Conn) srcAddr(ap netip.AddrPort) netsim.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.srcs[ap]
	if !ok {
		if len(c.srcs) >= maxPeers {
			clear(c.srcs)
		}
		s = netsim.Addr(net.UDPAddrFromAddrPort(ap).String())
		c.srcs[ap] = s
	}
	return s
}

// dstAddrPort returns the socket address for dst, resolving it (a parse,
// or a DNS lookup for a hostname peer) only the first time it is seen.
func (c *Conn) dstAddrPort(dst netsim.Addr) (netip.AddrPort, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ap, ok := c.dsts[dst]
	if !ok {
		ua, err := net.ResolveUDPAddr("udp", string(dst))
		if err != nil {
			return netip.AddrPort{}, false
		}
		// The resolver returns v4 in 16-byte form; a v4 socket only takes
		// the unmapped address and a dual-stack one takes either.
		ap = ua.AddrPort()
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		if len(c.dsts) >= maxPeers {
			clear(c.dsts)
		}
		c.dsts[dst] = ap
	}
	return ap, true
}

// Send writes payload to dst. Errors (unresolvable peers, closed socket)
// are dropped, matching UDP semantics.
func (c *Conn) Send(dst netsim.Addr, payload []byte) {
	if ap, ok := c.dstAddrPort(dst); ok {
		_, _ = c.pc.WriteToUDPAddrPort(payload, ap)
	}
}

// SendMsg implements netsim.Conn: a socket carries bytes only, so m is
// packed into the Conn's one reused buffer.
func (c *Conn) SendMsg(dst netsim.Addr, m *dnswire.Message) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	wire, err := m.AppendPack(c.wbuf[:0])
	if err != nil {
		return // a sender checks first; dropped like any unsendable packet
	}
	c.wbuf = wire
	c.Send(dst, wire)
}

// Serve reads packets and calls handler for each, on this goroutine and
// under the loop lock, until Close. payload is a slice of Serve's one
// read buffer: the handler must not keep it past its return. Call it on
// its own goroutine; it returns net.ErrClosed after Close, else the first
// read error.
func (c *Conn) Serve(handler func(src netsim.Addr, payload []byte)) error {
	read, release, err := c.reader()
	if err != nil {
		return err
	}
	defer release()
	buf := make([]byte, 65535)
	for {
		n, ap, err := read(buf)
		// A read that Close wakes may return 0 octets and no error, like
		// an empty datagram: only the flag tells them apart.
		if c.closed.Load() {
			return net.ErrClosed
		}
		if err != nil {
			return err
		}
		src := c.srcAddr(ap)
		if c.loop.enter() {
			handler(src, buf[:n])
			c.loop.mu.Unlock()
		}
	}
}

// Close closes the socket and wakes a Serve blocked in its read.
func (c *Conn) Close() error {
	c.closed.Store(true)
	c.wake()
	return c.pc.Close()
}

var (
	_ netsim.Conn = (*Conn)(nil)
	_ clock.Clock = Clock{}
)
