package stub

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// truncServer answers UDP queries with TC=1 (data sections stripped, OPT
// echoed when the query carried one) and, when tcp is set, serves the
// complete answer on the TCP plane.
func truncServer(t *testing.T, net *netsim.Network, addr netsim.Addr, tcp bool) {
	t.Helper()
	answer := func(q *dnswire.Message, truncate bool) *dnswire.Message {
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		if truncate {
			resp.Truncated = true
			if size, do, ok := q.EDNS(); ok {
				resp.AddEDNS(size, do)
			}
		} else {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: q.Question1().Name, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")},
			})
		}
		return resp
	}
	var port *netsim.Port
	port = net.Bind(addr, func(src netsim.Addr, payload []byte) {
		q, err := dnswire.Unpack(payload)
		if err != nil || q.Response {
			return
		}
		port.SendMsg(src, answer(q, true))
	})
	if !tcp {
		return
	}
	var tport *netsim.TCPPort
	tport = net.BindTCP(addr, func(src netsim.Addr, q *dnswire.Message) {
		if !q.Response {
			tport.SendMsg(src, answer(q, false))
		}
	})
}

// TestTruncatedNotFinal is the TC=1 regression test: a truncated
// response with fallback disabled must surface as ErrTruncated — never
// as a successful answer. Pre-fix, the stub delivered the stripped TC=1
// message to the callback as the final result.
func TestTruncatedNotFinal(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	truncServer(t, net, "10.0.0.53", false)
	c := New(clk, Config{EDNSSize: 1232})
	c.Attach(net, "10.9.0.1")

	var got Result
	c.Query("10.0.0.53", "probe1.cachetest.nl.", dnswire.TypeAAAA, func(r Result) { got = r })
	clk.Run()
	if got.Err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", got.Err)
	}
	if !got.Truncated {
		t.Error("Result.Truncated not set")
	}
	if got.Msg == nil || !got.Msg.Truncated {
		t.Errorf("Msg = %+v, want the stripped TC=1 response for inspection", got.Msg)
	}
}

// TestTCPFallbackRecovers checks the retry leg: with TCPFallback on, a
// TC=1 response triggers a TCP retry and the complete answer comes back
// flagged as obtained over TCP.
func TestTCPFallbackRecovers(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	truncServer(t, net, "10.0.0.53", true)
	c := New(clk, Config{EDNSSize: 1232, TCPFallback: true})
	c.Attach(net, "10.9.0.1")

	var got Result
	c.Query("10.0.0.53", "probe1.cachetest.nl.", dnswire.TypeAAAA, func(r Result) { got = r })
	clk.Run()
	if got.Err != nil {
		t.Fatalf("err = %v", got.Err)
	}
	if !got.TCP {
		t.Error("Result.TCP not set on a fallback answer")
	}
	if len(got.Msg.Answers) != 1 {
		t.Fatalf("answers = %v", got.Msg.Answers)
	}
	if s := net.Stats(); s.TCPSent != 2 || s.TCPDelivered != 2 {
		t.Errorf("tcp stats = %+v", s)
	}
}

// TestTCPResponseNeverRefallsBack guards the p.tcp condition: a TC=1
// response arriving over TCP (a server bug) is delivered as-is instead
// of looping another fallback.
func TestTCPResponseNeverRefallsBack(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	// Server truncates on BOTH planes.
	var port *netsim.Port
	port = net.Bind("10.0.0.53", func(src netsim.Addr, payload []byte) {
		q, _ := dnswire.Unpack(payload)
		resp := dnswire.NewResponse(q)
		resp.Truncated = true
		wire, _ := resp.Pack()
		port.Send(src, wire)
	})
	tcpQueries := 0
	var tport *netsim.TCPPort
	tport = net.BindTCP("10.0.0.53", func(src netsim.Addr, q *dnswire.Message) {
		tcpQueries++
		resp := dnswire.NewResponse(q)
		resp.Truncated = true
		tport.SendMsg(src, resp)
	})
	c := New(clk, Config{TCPFallback: true})
	c.Attach(net, "10.9.0.1")

	var got Result
	c.Query("10.0.0.53", "x.nl.", dnswire.TypeA, func(r Result) { got = r })
	clk.Run()
	if got.Msg == nil || !got.Msg.Truncated {
		t.Fatalf("result = %+v, want the TC=1 TCP response delivered", got)
	}
	if tcpQueries != 1 {
		t.Errorf("tcp retries = %d, want exactly 1", tcpQueries)
	}
}
