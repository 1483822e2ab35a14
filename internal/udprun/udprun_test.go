package udprun

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/zone"
)

const udpTestZone = `
$ORIGIN cachetest.nl.
$TTL 3600
@    IN SOA ns1 hostmaster 1 7200 3600 864000 60
@    IN NS  ns1
ns1  IN A   127.0.0.1
host IN AAAA 2001:db8::7
`

func TestLoopSerializesAndCloses(t *testing.T) {
	loop := NewLoop()
	go loop.Run()
	done := make(chan int, 10)
	for i := 0; i < 10; i++ {
		i := i
		loop.Post(func() { done <- i })
	}
	for i := 0; i < 10; i++ {
		select {
		case got := <-done:
			if got != i {
				t.Fatalf("events out of order: got %d want %d", got, i)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("event never ran")
		}
	}
	loop.Close()
	loop.Close() // idempotent
	loop.Post(func() { t.Error("event ran after Close") })
	Clock{Loop: loop}.AfterFuncRef(0, func(any) { t.Error("timer ran after Close") }, nil)
	time.Sleep(20 * time.Millisecond)
}

// TestLoopSerializes drives every kind of callback at once — packet
// handlers on two sockets' reader goroutines, clock.AfterFunc and
// AfterFuncRef timers, Post from 8 goroutines — onto one counter and one slice that
// nothing but the loop lock protects. The count must be exact, and the
// race detector (make race runs this package with -count=10) must stay
// quiet.
func TestLoopSerializes(t *testing.T) {
	const (
		posters   = 8
		perPoster = 200
		timers    = 200 // of each flavour
		packets   = 200 // per socket
	)
	loop := NewLoop()
	clk := Clock{Loop: loop}
	var (
		count int
		log   []int
		wg    sync.WaitGroup
	)
	bump := func() {
		count++
		log = append(log, count)
		wg.Done()
	}

	var conns [2]*Conn
	for i := range conns {
		c, err := Listen("127.0.0.1:0", loop)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		go c.Serve(func(src netsim.Addr, payload []byte) {
			bump()
			c.Send(src, payload)
		})
	}

	wg.Add(posters*perPoster + 2*timers + 2*packets)
	for p := 0; p < posters; p++ {
		go func() {
			for i := 0; i < perPoster; i++ {
				loop.Post(bump)
			}
		}()
	}
	go func() {
		for i := 0; i < timers; i++ {
			clock.AfterFunc(clk, time.Duration(i%5)*time.Millisecond, bump)
			clk.AfterFuncRef(time.Duration(i%5)*time.Millisecond, func(any) { bump() }, nil)
		}
	}()
	for _, c := range conns {
		c := c
		go func() {
			// Each packet waits for the echo of the one before, so none is
			// lost to a full socket buffer and the count can be exact.
			peer, err := net.Dial("udp", string(c.Addr()))
			if err != nil {
				t.Error(err)
				return
			}
			defer peer.Close()
			buf := make([]byte, 1)
			for i := 0; i < packets; i++ {
				peer.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := peer.Write([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := peer.Read(buf); err != nil || buf[0] != byte(i) {
					t.Errorf("echo %d: %v, %v", i, buf, err)
					return
				}
			}
		}()
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("callbacks never all ran")
	}
	loop.Post(func() {
		want := posters*perPoster + 2*timers + 2*packets
		if count != want || len(log) != want {
			t.Errorf("count = %d, log = %d entries, want %d", count, len(log), want)
		}
		for i, v := range log {
			if v != i+1 {
				t.Errorf("log[%d] = %d: callbacks interleaved", i, v)
				break
			}
		}
	})
}

// TestStopBeforeFire pins the AfterFuncRef path the resolver's and the
// stub's timeouts take on the real clock.
func TestStopBeforeFire(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	clk := Clock{Loop: loop}
	ref := clk.AfterFuncRef(30*time.Millisecond, func(any) { t.Error("stopped timer fired") }, nil)
	if !ref.Stop() {
		t.Error("Stop of a pending timer reported false")
	}
	if ref.Stop() {
		t.Error("second Stop reported true")
	}
	fired := make(chan any, 1)
	ref = clk.AfterFuncRef(time.Millisecond, func(arg any) { fired <- arg }, "arg")
	select {
	case got := <-fired:
		if got != "arg" {
			t.Errorf("callback got %v, want its argument", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if ref.Stop() {
		t.Error("Stop after the callback ran reported true")
	}
	time.Sleep(60 * time.Millisecond) // the stopped timer's deadline passes
}

// TestPeerStringMatchesUDPAddr checks, per socket family, that the source
// string a handler sees is what (*net.UDPAddr).String() prints for the
// same endpoint — the engines compare it with the string they sent to —
// and that Send to that string reaches the peer, an empty datagram too.
func TestPeerStringMatchesUDPAddr(t *testing.T) {
	for _, tc := range []struct{ name, listen, peerHost, payload string }{
		{"v4", "127.0.0.1:0", "127.0.0.1", "ping"},
		{"v6", "[::1]:0", "::1", "ping"},
		{"dual-stack from v4", ":0", "127.0.0.1", "ping"},
		// A read woken by Close also returns 0 octets, so Serve must
		// tell the two apart by its closed flag, not by n.
		{"empty datagram", "127.0.0.1:0", "127.0.0.1", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := NewLoop()
			defer loop.Close()
			conn, err := Listen(tc.listen, loop)
			if err != nil {
				t.Skipf("no such socket here: %v", err)
			}
			defer conn.Close()
			seen := make(chan netsim.Addr, 1)
			go conn.Serve(func(src netsim.Addr, payload []byte) {
				conn.Send(src, payload)
				seen <- src
			})

			peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(tc.peerHost)})
			if err != nil {
				t.Skipf("no peer socket: %v", err)
			}
			defer peer.Close()
			_, port, _ := net.SplitHostPort(string(conn.Addr()))
			dst, err := net.ResolveUDPAddr("udp", net.JoinHostPort(tc.peerHost, port))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := peer.WriteToUDP([]byte(tc.payload), dst); err != nil {
				t.Fatal(err)
			}

			want := peer.LocalAddr().(*net.UDPAddr).String()
			select {
			case src := <-seen:
				if string(src) != want {
					t.Errorf("handler saw %q, (*net.UDPAddr).String() is %q", src, want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("packet never arrived")
			}
			buf := make([]byte, 16)
			peer.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, _, err := peer.ReadFromUDP(buf)
			if err != nil || string(buf[:n]) != tc.payload {
				t.Errorf("Send(%q) did not reach the peer: %q, %v", want, buf[:n], err)
			}
		})
	}
}

// serveEcho starts an echo Serve on a fresh loopback socket and returns
// the socket and the channel Serve's result arrives on.
func serveEcho(t *testing.T, loop *Loop) (*Conn, <-chan error) {
	t.Helper()
	conn, err := Listen("127.0.0.1:0", loop)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- conn.Serve(func(src netsim.Addr, payload []byte) { conn.Send(src, payload) }) }()
	return conn, served
}

// echo sends one datagram to conn and waits for it to come back: after
// it returns, Serve is in (or on its way back into) its read.
func echo(t *testing.T, peer net.Conn) {
	t.Helper()
	buf := make([]byte, 8)
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := peer.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if n, err := peer.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	return len(fds)
}

// TestServeReturnsAfterClose: a Serve blocked in its read, or busy with a
// stream of datagrams, returns net.ErrClosed within a second of Close,
// and every descriptor it used is closed by then.
func TestServeReturnsAfterClose(t *testing.T) {
	c, _ := serveEcho(t, NewLoop()) // the runtime's poller opens its descriptors once
	c.Close()
	for _, inFlight := range []bool{false, true} {
		t.Run(fmt.Sprintf("in-flight=%v", inFlight), func(t *testing.T) {
			before := openFDs(t)
			loop := NewLoop()
			defer loop.Close()
			conn, served := serveEcho(t, loop)
			peer, err := net.Dial("udp", string(conn.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			echo(t, peer)
			stop, sent := make(chan struct{}), make(chan struct{})
			if inFlight {
				go func() {
					defer close(sent)
					for {
						select {
						case <-stop:
							return
						default:
							peer.Write([]byte("flood")) // refused once the socket is gone
						}
					}
				}()
			} else {
				close(sent)
			}
			conn.Close()
			closed := time.Now()
			select {
			case err := <-served:
				if !errors.Is(err, net.ErrClosed) {
					t.Errorf("Serve returned %v, want net.ErrClosed", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Serve still running 1 s after Close")
			}
			t.Logf("Serve returned %v after Close", time.Since(closed))
			close(stop)
			<-sent
			peer.Close()
			// Another test's Serve may close its own descriptor meanwhile,
			// so the count may fall; it must not have grown.
			if after := openFDs(t); after > before {
				t.Errorf("%d descriptors open before Listen, %d after Serve returned", before, after)
			}
		})
	}
}

// TestTimersRunWhileServeBlocks: while Serve sleeps in its read, a 1 ms
// timer and a Post from another goroutine each complete within 50 ms, at
// one P and at two. A reader that kept the scheduler from taking its P
// back (a raw syscall) or held the loop lock across its read would fail.
func TestTimersRunWhileServeBlocks(t *testing.T) {
	const limit = 50 * time.Millisecond
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			loop := NewLoop()
			defer loop.Close()
			conn, served := serveEcho(t, loop)
			defer func() { conn.Close(); <-served }()
			peer, err := net.Dial("udp", string(conn.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			var worstTimer, worstPost time.Duration
			for i := 0; i < 5; i++ {
				echo(t, peer)
				start, fired := time.Now(), make(chan time.Duration, 1)
				clock.AfterFunc(Clock{Loop: loop}, time.Millisecond, func() { fired <- time.Since(start) })
				select {
				case d := <-fired:
					worstTimer = max(worstTimer, d)
				case <-time.After(2 * time.Second):
					t.Fatal("timer never fired")
				}
				echo(t, peer)
				posted := make(chan time.Duration, 1)
				go func() {
					start := time.Now()
					loop.Post(func() {})
					posted <- time.Since(start)
				}()
				select {
				case d := <-posted:
					worstPost = max(worstPost, d)
				case <-time.After(2 * time.Second):
					t.Fatal("Post never returned")
				}
			}
			if worstTimer > limit+time.Millisecond || worstPost > limit {
				t.Errorf("worst timer %v (due at 1 ms), worst Post %v; limit %v", worstTimer, worstPost, limit)
			}
			t.Logf("worst timer %v (due at 1 ms), worst Post %v", worstTimer, worstPost)
		})
	}
}

// TestPeerMemoBounded floods both address memos with 10^5 distinct
// peers, as a spoofed-source attack would: each stays at its cap and the
// heap does not grow with the number of sources seen.
func TestPeerMemoBounded(t *testing.T) {
	conn, err := Listen("127.0.0.1:0", NewLoop())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	flood := func(from, to int) {
		for i := from; i < to; i++ {
			ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), uint16(1024+i%60000))
			src := conn.srcAddr(ap)
			if want := net.UDPAddrFromAddrPort(ap).String(); string(src) != want {
				t.Fatalf("srcAddr(%v) = %q, want %q", ap, src, want)
			}
			if got, ok := conn.dstAddrPort(src); !ok || got != ap {
				t.Fatalf("dstAddrPort(%q) = %v, %v; want %v", src, got, ok, ap)
			}
		}
	}
	flood(0, 2*maxPeers) // the maps reach their full size
	before := liveHeap()
	flood(2*maxPeers, 100000)
	after := liveHeap()
	if len(conn.srcs) > maxPeers || len(conn.dsts) > maxPeers {
		t.Errorf("memo sizes %d / %d, cap %d", len(conn.srcs), len(conn.dsts), maxPeers)
	}
	if after > before+256<<10 {
		t.Errorf("heap grew %d -> %d bytes over 10^5 sources", before, after)
	}
	if _, ok := conn.dstAddrPort("not an address"); ok {
		t.Error("unparseable peer resolved")
	}
}

func TestClockAfterFuncOnLoop(t *testing.T) {
	loop := NewLoop()
	go loop.Run()
	defer loop.Close()
	clk := Clock{Loop: loop}
	fired := make(chan struct{})
	clock.AfterFunc(clk, 10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	// Stop prevents firing.
	timer := clock.AfterFunc(clk, 50*time.Millisecond, func() { t.Error("stopped timer fired") })
	if !timer.Stop() {
		t.Error("Stop returned false")
	}
	time.Sleep(80 * time.Millisecond)
}

// TestAuthoritativeOverRealUDP serves a zone on a real socket and queries
// it with a raw UDP exchange.
func TestAuthoritativeOverRealUDP(t *testing.T) {
	z, err := zone.ParseString(udpTestZone, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := authoritative.New(z)

	loop := NewLoop()
	go loop.Run()
	defer loop.Close()
	conn, err := Listen("127.0.0.1:0", loop)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Serve(func(src netsim.Addr, payload []byte) {
		if out := srv.HandleWire(payload); out != nil {
			conn.Send(src, out)
		}
	})

	// Client side: second socket.
	cliLoop := NewLoop()
	go cliLoop.Run()
	defer cliLoop.Close()
	cli, err := Listen("127.0.0.1:0", cliLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	got := make(chan *dnswire.Message, 1)
	go cli.Serve(func(src netsim.Addr, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil {
			got <- m
		}
	})
	q := dnswire.NewQuery(7, "host.cachetest.nl.", dnswire.TypeAAAA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	cli.Send(conn.Addr(), wire)

	select {
	case m := <-got:
		if len(m.Answers) != 1 || !m.Authoritative {
			t.Fatalf("answer = %v", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no response over UDP")
	}
}

// TestRecursiveOverRealUDP runs an authoritative and a recursive resolver
// on real sockets end to end.
func TestRecursiveOverRealUDP(t *testing.T) {
	z, err := zone.ParseString(udpTestZone, "")
	if err != nil {
		t.Fatal(err)
	}
	authLoop := NewLoop()
	go authLoop.Run()
	defer authLoop.Close()
	authConn, err := Listen("127.0.0.1:0", authLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer authConn.Close()
	srv := authoritative.New(z)
	go authConn.Serve(func(src netsim.Addr, payload []byte) {
		if out := srv.HandleWire(payload); out != nil {
			authConn.Send(src, out)
		}
	})

	resLoop := NewLoop()
	go resLoop.Run()
	defer resLoop.Close()
	resConn, err := Listen("127.0.0.1:0", resLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer resConn.Close()
	// The "root hint" points straight at the zone's server, which is
	// authoritative for everything we ask.
	res := recursive.NewResolver(Clock{Loop: resLoop}, recursive.Config{
		RootHints: []recursive.ServerHint{{Name: "ns1.cachetest.nl.", Addr: authConn.Addr()}},
	})
	res.SetConn(resConn)
	go resConn.Serve(res.Receive)

	done := make(chan recursive.Result, 1)
	resLoop.Post(func() {
		res.Resolve("host.cachetest.nl.", dnswire.TypeAAAA, 0, func(r recursive.Result) {
			done <- r
		})
	})
	select {
	case r := <-done:
		if r.ServFail || len(r.Answers) != 1 {
			t.Fatalf("result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recursive resolution over UDP timed out")
	}
}

// liveHeap collects and returns the heap bytes that collection marked
// live. Unlike MemStats.HeapAlloc read after runtime.GC, it does not count
// what other goroutines allocate between the collection and the read.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
