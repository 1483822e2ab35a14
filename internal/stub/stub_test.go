package stub

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// echoServer answers every query with a fixed AAAA record.
func echoServer(t *testing.T, net *netsim.Network, addr netsim.Addr) {
	t.Helper()
	var port *netsim.Port
	port = net.Bind(addr, func(src netsim.Addr, payload []byte) {
		q, err := dnswire.Unpack(payload)
		if err != nil || q.Response {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: q.Question1().Name, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")},
		})
		wire, err := resp.Pack()
		if err != nil {
			t.Errorf("pack: %v", err)
			return
		}
		port.Send(src, wire)
	})
}

func TestQueryAnswered(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	echoServer(t, net, "10.0.0.53")
	c := New(clk, Config{})
	c.Attach(net, "10.9.0.1")

	var got Result
	c.Query("10.0.0.53", "probe1.cachetest.nl.", dnswire.TypeAAAA, func(r Result) { got = r })
	clk.Run()
	if got.Err != nil {
		t.Fatalf("err = %v", got.Err)
	}
	if len(got.Msg.Answers) != 1 {
		t.Fatalf("answers = %v", got.Msg.Answers)
	}
	if got.RTT <= 0 {
		t.Errorf("RTT = %v", got.RTT)
	}
	if got.Server != "10.0.0.53" {
		t.Errorf("server = %v", got.Server)
	}
}

func TestQueryTimeout(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	c := New(clk, Config{})
	c.Attach(net, "10.9.0.1")
	var got Result
	c.Query("10.0.0.53", "x.nl.", dnswire.TypeA, func(r Result) { got = r })
	clk.Run()
	if got.Err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", got.Err)
	}
	if got.RTT != DefaultTimeout {
		t.Errorf("RTT = %v, want %v", got.RTT, DefaultTimeout)
	}
}

func TestQueryRetries(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	received := 0
	net.Bind("10.0.0.53", func(netsim.Addr, []byte) { received++ })
	c := New(clk, Config{Timeout: time.Second, Retries: 2})
	c.Attach(net, "10.9.0.1")
	var got Result
	c.Query("10.0.0.53", "x.nl.", dnswire.TypeA, func(r Result) { got = r })
	clk.Run()
	if received != 3 {
		t.Errorf("server received %d queries, want 3", received)
	}
	if got.Err != ErrTimeout {
		t.Errorf("err = %v", got.Err)
	}
}

func TestLateAndForeignResponsesIgnored(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	// Server replies from a different address than queried.
	var port *netsim.Port
	port = net.Bind("10.0.0.53", func(src netsim.Addr, payload []byte) {
		q, _ := dnswire.Unpack(payload)
		resp := dnswire.NewResponse(q)
		wire, _ := resp.Pack()
		// Send from the wrong source.
		net.Send("10.0.0.99", src, wire)
		_ = port
	})
	c := New(clk, Config{Timeout: time.Second})
	c.Attach(net, "10.9.0.1")
	var got Result
	c.Query("10.0.0.53", "x.nl.", dnswire.TypeA, func(r Result) { got = r })
	clk.Run()
	if got.Err != ErrTimeout {
		t.Errorf("accepted response from wrong server: %+v", got)
	}
}

// TestIDWraparoundSkipsZero parks the allocator just below the 16-bit
// wraparound with the last ID busy, so the busy-scan must step
// 65535 -> 0 -> 1. Pre-fix, the scan incremented straight onto the
// reserved ID 0 and assigned it.
func TestIDWraparoundSkipsZero(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	echoServer(t, net, "10.0.0.53")
	c := New(clk, Config{})
	c.Attach(net, "10.9.0.1")

	blocker := &pending{id: 65535}
	c.nextID = 65534
	c.inflight = blocker

	var got Result
	c.Query("10.0.0.53", "wrap.cachetest.nl.", dnswire.TypeAAAA, func(r Result) { got = r })
	if c.lookup(0) != nil {
		t.Fatal("allocator assigned the reserved ID 0")
	}
	if p := c.lookup(1); p == nil || p == blocker || c.inflight != p {
		t.Fatalf("expected the query at ID 1 after wraparound; got %+v", c.inflight)
	}
	c.take(blocker)
	clk.Run()
	if got.Err != nil || got.Msg == nil {
		t.Fatalf("query did not complete: %+v", got)
	}
}

func TestConcurrentQueriesKeepIDsDistinct(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	echoServer(t, net, "10.0.0.53")
	c := New(clk, Config{})
	c.Attach(net, "10.9.0.1")
	results := 0
	for i := 0; i < 100; i++ {
		c.Query("10.0.0.53", "x.nl.", dnswire.TypeAAAA, func(r Result) {
			if r.Err == nil {
				results++
			}
		})
	}
	clk.Run()
	if results != 100 {
		t.Errorf("answered %d/100", results)
	}
}

// TestResultMsgValidInsideCallback pins the Result.Msg contract: it is the
// delivered packet's message, so each callback sees its own response
// while it runs, and the network reuses it after.
func TestResultMsgValidInsideCallback(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	echoServer(t, net, "10.0.0.53")
	c := New(clk, Config{})
	c.Attach(net, "10.9.0.1")

	seen := 0
	for _, name := range []string{"a.cachetest.nl.", "b.cachetest.nl."} {
		name := name
		c.Query("10.0.0.53", name, dnswire.TypeAAAA, func(r Result) {
			if r.Err != nil || r.Msg.Question1().Name != name || r.Msg.Answers[0].Name != name {
				t.Errorf("callback for %s saw %+v (err %v)", name, r.Msg, r.Err)
			}
			seen++
		})
	}
	clk.Run()
	if seen != 2 {
		t.Errorf("%d callbacks ran, want 2", seen)
	}
}

// lateClock is a wall clock's worst case on top of Virtual: every
// TimerRef's Stop() reports false — the callback is already queued — and
// the callback still runs at its deadline.
type lateClock struct{ *clock.Virtual }

func (c lateClock) AfterFuncRef(d time.Duration, f func(any), arg any) clock.TimerRef {
	c.Virtual.AfterFuncRef(d, f, arg)
	return clock.TimerRef{} // the zero TimerRef's Stop reports false
}

// TestLateTimerAfterRecycle is the stub's half of recursive's test of the
// same name: the answer retires the pending record, the attemptTimeout
// that Stop() could not cancel fires later — while a second query is in
// flight, which a free list that ignored Stop()'s result would have handed
// the same record. No second callback, no spurious ErrTimeout.
func TestLateTimerAfterRecycle(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	echoServer(t, net, "10.0.0.53")
	net.SetPairDelay("10.9.0.1", "10.0.0.53", 20*time.Millisecond)
	c := New(lateClock{clk}, Config{})
	c.Attach(net, "10.9.0.1")

	var results []Result
	record := func(r Result) { results = append(results, r) }
	c.Query("10.0.0.53", "probe1.cachetest.nl.", dnswire.TypeAAAA, record)
	// The first query's timer fires at 5 s; the second is then 20 ms out,
	// its answer 20 ms away.
	clock.AfterFunc(clk, DefaultTimeout-20*time.Millisecond, func() {
		c.Query("10.0.0.53", "probe1.cachetest.nl.", dnswire.TypeAAAA, record)
	})
	clk.Run()
	if len(results) != 2 {
		t.Fatalf("%d callbacks, want 2", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.RTT != 40*time.Millisecond {
			t.Errorf("query %d: err %v, RTT %v", i+1, r.Err, r.RTT)
		}
	}
	if c.inflight != nil {
		t.Errorf("query %d left in flight", c.inflight.id)
	}
}

// TestMalformedResponseLeavesQueryInFlight sends, as bytes, a response
// whose ID matches the query in flight but whose body is cut short, then
// the whole response: the first is ignored and the second answers.
func TestMalformedResponseLeavesQueryInFlight(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	net.SetPairDelay("10.0.0.53", "10.9.0.1", 10*time.Millisecond)
	var port *netsim.Port
	port = net.Bind("10.0.0.53", func(src netsim.Addr, payload []byte) {
		q, _ := dnswire.Unpack(payload)
		resp := dnswire.NewResponse(q)
		resp.Answers = append(resp.Answers, dnswire.RR{Name: q.Question1().Name, Class: dnswire.ClassIN,
			TTL: 60, Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}})
		wire, _ := resp.Pack()
		port.Send(src, wire[:len(wire)-1])
		port.Send(src, wire)
	})
	c := New(clk, Config{Timeout: time.Second})
	c.Attach(net, "10.9.0.1")
	var outcomes []string
	c.Query("10.0.0.53", "x.nl.", dnswire.TypeAAAA, func(r Result) {
		if r.Err != nil {
			outcomes = append(outcomes, r.Err.Error())
		} else {
			outcomes = append(outcomes, fmt.Sprintf("%d answers", len(r.Msg.Answers)))
		}
	})
	clk.Run()
	if len(outcomes) != 1 || outcomes[0] != "1 answers" {
		t.Fatalf("outcomes = %q, want one answer", outcomes)
	}
}
