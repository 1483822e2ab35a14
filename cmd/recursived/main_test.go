package main

import (
	"net"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/udprun"
)

// TestTCPBridgeDeadline serves TCP through the bridge with an engine that
// never calls back: the client gets SERVFAIL once the wait expires and
// the connection's goroutine is free for the next query, instead of
// parking forever.
func TestTCPBridgeDeadline(t *testing.T) {
	loop := udprun.NewLoop()
	defer loop.Close()
	silent := func(*dnswire.Message, func(*dnswire.Message)) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go udprun.ServeTCP(ln, tcpBridge(loop, silent, 50*time.Millisecond))

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for id := uint16(7); id < 9; id++ { // the second proves the goroutine came back
		wire, err := dnswire.NewQuery(id, "host.cachetest.nl.", dnswire.TypeAAAA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := udprun.WriteTCPMessage(conn, wire); err != nil {
			t.Fatal(err)
		}
		out, err := udprun.ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("query %d: no answer after the bridge deadline: %v", id, err)
		}
		m, err := dnswire.Unpack(out)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != id || !m.Response || m.RCode != dnswire.RCodeServFail || len(m.Questions) != 1 {
			t.Errorf("query %d answered %v, want its SERVFAIL", id, m)
		}
	}
}

// TestTCPBridgeAnswers: a callback made inside the posted call, as a
// cache hit makes it, is what the client receives; a response message is
// dropped without waiting.
func TestTCPBridgeAnswers(t *testing.T) {
	loop := udprun.NewLoop()
	defer loop.Close()
	echo := func(q *dnswire.Message, cb func(*dnswire.Message)) { cb(dnswire.NewResponse(q)) }
	bridge := tcpBridge(loop, echo, time.Minute)
	q := dnswire.NewQuery(3, "host.cachetest.nl.", dnswire.TypeAAAA)
	wire, _ := q.Pack()
	m, err := dnswire.Unpack(bridge(wire))
	if err != nil || m.ID != 3 || !m.Response || m.RCode != dnswire.RCodeNoError {
		t.Errorf("bridge answered %v, %v", m, err)
	}
	q.Response = true
	wire, _ = q.Pack()
	if out := bridge(wire); out != nil {
		t.Errorf("a response message was answered with %d octets", len(out))
	}
}
