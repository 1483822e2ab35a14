package recursive

// Reuse and merge safety: the outquery free list under a clock whose
// Stop() loses to the callback, and the job that is its own task.

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// lateClock is a wall clock's worst case on top of Virtual: every
// TimerRef's Stop() reports false — the callback is already queued, as
// behind udprun.Loop's lock — and the callback still runs at its deadline.
type lateClock struct{ *clock.Virtual }

type firedAlready struct{}

func (firedAlready) Stop() bool { return false }

func (c lateClock) AfterFuncRef(d time.Duration, f func(any), arg any) clock.TimerRef {
	c.Virtual.AfterFuncArg(d, f, arg)
	return clock.RefOf(firedAlready{})
}

// TestLateTimerAfterRecycle: an upstream answer retires its outquery, and
// the timeout that Stop() could not cancel fires afterwards. The node must
// not have gone back to the free list: zeroed, its timeout dereferenced a
// nil task (recursived died when an answer and its timeout landed
// together); reused, the timeout would hit the next query's server.
func TestLateTimerAfterRecycle(t *testing.T) {
	w := newWorld(t, Config{})
	res := NewResolver(lateClock{w.clk}, Config{
		RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}})
	res.Attach(w.net, "10.0.0.54")

	answers := 0
	res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) {
		answers++
		if r.ServFail || len(r.Answers) != 1 {
			t.Errorf("result = %+v", r)
		}
	})
	// Past every upstream timeout and the client deadline, all of which
	// still fire.
	w.clk.RunFor(30 * time.Second)
	if answers != 1 {
		t.Fatalf("callback ran %d times, want 1", answers)
	}
	st := res.Stats()
	if st.Timeouts != 0 || st.ServFails != 0 {
		t.Errorf("late timers counted: %+v", st)
	}
	if res.oqFree != nil {
		t.Error("an outquery whose timer was still queued went back to the free list")
	}
	// The second resolution reuses nothing the late timers can reach.
	res.Resolve("9999.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { answers++ })
	w.clk.RunFor(30 * time.Second)
	if st := res.Stats(); answers != 2 || st.Timeouts != 0 {
		t.Errorf("second resolution: %d answers, %+v", answers, st)
	}
}

// TestCoalescedWaitersKeepTheirOwnHeader: three clients ask the same
// question while it is in flight, over UDP and TCP, with different IDs, RD
// bits and EDNS. One job (one upstream chain) answers all three, each with
// what its own query carried.
func TestCoalescedWaitersKeepTheirOwnHeader(t *testing.T) {
	w := newWorld(t, Config{TCPFallback: true}) // binds the TCP plane
	type seen struct {
		tcp  bool
		resp *dnswire.Message
	}
	got := map[netsim.Addr]seen{}
	listen := func(addr netsim.Addr, tcp bool) func(netsim.Addr, []byte) {
		return func(_ netsim.Addr, payload []byte) {
			m, err := dnswire.Unpack(payload)
			if err != nil {
				t.Errorf("%s: %v", addr, err)
				return
			}
			if _, dup := got[addr]; dup {
				t.Errorf("%s answered twice", addr)
			}
			got[addr] = seen{tcp, m}
		}
	}
	ask := func(addr netsim.Addr, id uint16, rd bool, edns uint16, tcp bool) {
		q := dnswire.NewQuery(id, "1414.cachetest.nl.", dnswire.TypeAAAA)
		q.RecursionDesired = rd
		if edns > 0 {
			q.AddEDNS(edns, false)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		w.net.Bind(addr, listen(addr, false))
		w.net.BindTCP(addr, listen(addr, true))
		if tcp {
			w.net.SendTCP(addr, resAddr, wire)
		} else {
			w.net.Send(addr, resAddr, wire)
		}
	}
	ask("10.9.0.1", 101, true, 0, false)
	ask("10.9.0.2", 202, false, 1232, true)
	ask("10.9.0.3", 303, true, 4096, false)
	w.clk.RunFor(30 * time.Second)

	for addr, want := range map[netsim.Addr]struct {
		id   uint16
		rd   bool
		edns bool
		tcp  bool
	}{
		"10.9.0.1": {101, true, false, false},
		"10.9.0.2": {202, false, true, true},
		"10.9.0.3": {303, true, true, false},
	} {
		s, ok := got[addr]
		if !ok {
			t.Errorf("%s got no answer", addr)
			continue
		}
		_, _, edns := s.resp.EDNS()
		if s.resp.ID != want.id || s.resp.RecursionDesired != want.rd || edns != want.edns || s.tcp != want.tcp {
			t.Errorf("%s: id %d rd %v edns %v tcp %v, want %+v",
				addr, s.resp.ID, s.resp.RecursionDesired, edns, s.tcp, want)
		}
		if len(s.resp.Answers) != 1 {
			t.Errorf("%s: answers = %v", addr, s.resp.Answers)
		}
	}
	if st := w.res.Stats(); st.UpstreamQueries > 3 || st.ClientQueries != 1 {
		t.Errorf("three waiters did not share one job: %+v", st)
	}
	if len(w.res.coalesce) != 0 {
		t.Errorf("%d jobs left behind", len(w.res.coalesce))
	}
}

// TestDeadlineWithAnswerInFlight: the client deadline fires while the
// upstream answer is on its way. The client gets exactly one response,
// the SERVFAIL; the late answer (a referral, nothing to absorb) finds no
// task state to disturb.
func TestDeadlineWithAnswerInFlight(t *testing.T) {
	w := newWorld(t, Config{ClientTimeout: 2 * time.Second, InitialTimeout: 3 * time.Second})
	// Root answers at 1.2 s, nl at 2.4 s — after the 2 s deadline, before
	// the 3 s upstream timeout.
	w.net.SetPairDelay(resAddr, rootAddr, 600*time.Millisecond)
	w.net.SetPairDelay(resAddr, nlAddr, 600*time.Millisecond)
	var responses []*dnswire.Message
	port := w.net.Bind("10.9.9.9", func(_ netsim.Addr, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, m)
	})
	wire, _ := dnswire.NewQuery(7, "1414.cachetest.nl.", dnswire.TypeAAAA).Pack()
	port.Send(resAddr, wire)
	w.clk.RunFor(30 * time.Second)

	if len(responses) != 1 || responses[0].RCode != dnswire.RCodeServFail || responses[0].ID != 7 {
		t.Fatalf("responses = %v, want one SERVFAIL", responses)
	}
	st := w.res.Stats()
	if st.ClientResponses != 1 || st.UpstreamQueries != 2 || st.Timeouts != 0 {
		t.Errorf("late answer disturbed the finished task: %+v", st)
	}
	if len(w.res.coalesce) != 0 || len(w.res.inflight) != 0 {
		t.Errorf("left behind: %d jobs, %d outqueries", len(w.res.coalesce), len(w.res.inflight))
	}
	// The same question again starts a fresh job and succeeds.
	w.net.SetPairDelay(resAddr, nlAddr, time.Millisecond)
	port.Send(resAddr, wire)
	w.clk.RunFor(30 * time.Second)
	if len(responses) != 2 || len(responses[1].Answers) != 1 {
		t.Fatalf("second ask: %v", responses)
	}
}
