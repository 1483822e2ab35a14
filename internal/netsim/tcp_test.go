package netsim

import (
	"testing"
	"time"

	"repro/internal/dnswire"
)

// tcpQuery is a message to send on the TCP plane.
var tcpQuery = dnswire.NewQuery(1, "q.example.", dnswire.TypeA)

// TestTCPHandshakeLatency checks the connection-setup model: a cold pair
// pays one extra round trip (SYN + SYN-ACK) before the data segment, a
// warm connection rides the plain one-way delay, and an idle connection
// expires back to cold.
func TestTCPHandshakeLatency(t *testing.T) {
	clk, net := newNet()
	const oneWay = 10 * time.Millisecond
	net.SetPairDelay("a", "b", oneWay)

	var arrivals []time.Time
	net.BindTCP("b", func(Addr, *dnswire.Message) { arrivals = append(arrivals, clk.Now()) })

	send := func() {
		net.SendTCP("a", "b", tcpQuery)
		clk.Run()
	}

	send() // cold: handshake + data = 3x one-way
	if got, want := arrivals[0].Sub(epoch), 3*oneWay; got != want {
		t.Errorf("cold delivery after %v, want %v", got, want)
	}

	mark := clk.Now()
	send() // warm: data segment only
	if got, want := arrivals[1].Sub(mark), oneWay; got != want {
		t.Errorf("warm delivery after %v, want %v", got, want)
	}

	// The reply direction shares the initiator's connection.
	net.BindTCP("a", func(Addr, *dnswire.Message) { arrivals = append(arrivals, clk.Now()) })
	mark = clk.Now()
	net.SendTCP("b", "a", tcpQuery)
	clk.Run()
	if got, want := arrivals[2].Sub(mark), oneWay; got != want {
		t.Errorf("reply delivery after %v, want %v", got, want)
	}

	// Past the idle timeout the pair is cold again.
	clk.RunFor(tcpIdleTimeout + time.Second)
	mark = clk.Now()
	send()
	if got, want := arrivals[3].Sub(mark), 3*oneWay; got != want {
		t.Errorf("post-idle delivery after %v, want %v", got, want)
	}

	if s := net.Stats(); s.TCPConnects != 2 || s.TCPSent != 4 || s.TCPDelivered != 4 {
		t.Errorf("stats = %+v", s)
	}
}

// TestTCPSeparateLoss checks that the TCP plane has its own loss dial: a
// UDP flood drop rate leaves TCP untouched, and vice versa.
func TestTCPSeparateLoss(t *testing.T) {
	clk, net := newNet()
	var udp, tcp int
	net.Bind("b", func(Addr, []byte) { udp++ })
	net.BindTCP("b", func(Addr, *dnswire.Message) { tcp++ })

	net.SetInboundLoss("b", 1) // UDP dead, TCP alive
	for i := 0; i < 10; i++ {
		net.Send("a", "b", []byte("u"))
		net.SendTCP("a", "b", tcpQuery)
	}
	clk.Run()
	if udp != 0 || tcp != 10 {
		t.Fatalf("udp=%d tcp=%d with UDP loss armed, want 0/10", udp, tcp)
	}

	net.SetInboundLoss("b", 0)
	net.SetInboundLossTCP("b", 1) // TCP dead, UDP alive
	for i := 0; i < 10; i++ {
		net.Send("a", "b", []byte("u"))
		net.SendTCP("a", "b", tcpQuery)
	}
	clk.Run()
	if udp != 10 || tcp != 10 {
		t.Fatalf("udp=%d tcp=%d with TCP loss armed, want 10/10", udp, tcp)
	}
	s := net.Stats()
	if s.TCPDropped != 10 || s.TCPDelivered != 10 {
		t.Errorf("stats = %+v", s)
	}
	if s.Dropped != 10 || s.Delivered != 10 {
		t.Errorf("udp stats = %+v", s)
	}
}

// TestTCPDeadHost checks accounting for messages to an unbound TCP
// address.
func TestTCPDeadHost(t *testing.T) {
	clk, net := newNet()
	net.SendTCP("a", "nowhere", tcpQuery)
	clk.Run()
	if s := net.Stats(); s.TCPDead != 1 || s.TCPDelivered != 0 {
		t.Errorf("stats = %+v", s)
	}
}
