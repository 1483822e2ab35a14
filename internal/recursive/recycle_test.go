package recursive

// Reuse and merge safety: the outquery and job free lists under a clock
// whose Stop() loses to the callback, the references a task counts, and
// the job that is its own task.

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// lateClock is a wall clock's worst case on top of Virtual: every
// TimerRef's Stop() reports false — the callback is already queued, as
// behind udprun.Loop's lock — and the callback still runs at its deadline.
type lateClock struct{ *clock.Virtual }

func (c lateClock) AfterFuncRef(d time.Duration, f func(any), arg any) clock.TimerRef {
	c.Virtual.AfterFuncRef(d, f, arg)
	return clock.TimerRef{} // the zero TimerRef's Stop reports false
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
	if res.work().oqFree != nil {
		t.Error("an outquery whose timer was still queued went back to the free list")
	}
	// The second resolution reuses nothing the late timers can reach.
	res.Resolve("9999.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { answers++ })
	w.clk.RunFor(30 * time.Second)
	if st := res.Stats(); answers != 2 || st.Timeouts != 0 {
		t.Errorf("second resolution: %d answers, %+v", answers, st)
	}
}

// clientAddr is where the recycle tests' client queries come from.
const clientAddr = "10.9.0.1"

// clientQuery is a packed client query for (name, qtype).
func clientQuery(t *testing.T, name string, qtype dnswire.Type) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(7, name, qtype).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// onFreeList reports whether j is on the job free list of r's working set.
func onFreeList(r *Resolver, j *clientJob) bool {
	for f := r.work().jobFree; f != nil; f = f.next {
		if f == j {
			return true
		}
	}
	return false
}

// delayed is newWorld with a one-way delay between the resolver and each
// of the given servers.
func delayed(cfg Config, d time.Duration, servers ...netsim.Addr) func(*testing.T) *world {
	return func(t *testing.T) *world {
		w := newWorld(t, cfg)
		for _, s := range servers {
			w.net.SetPairDelay(resAddr, s, d)
		}
		return w
	}
}

// TestJobRecycle: a pooled job goes back to the free list only when
// nothing outside the call stack can reach its task, for each reference
// the task counts. Each case sends one client miss, checks at hold that
// the job is still out (a reference is live there: left uncounted, the
// job would be back and cleared, and the late callback would find it
// empty), runs the clock dry, and requires the job back and taken by the
// next miss — or, pinned by a subtask's closure, never back.
func TestJobRecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func(*testing.T) *world
		qname string
		qtype dnswire.Type
		hold  time.Duration // 0: nothing outlives the answer
		// pinned: the job is the GC's, never the free list's.
		pinned bool
		check  func(*testing.T, *world)
	}{{
		name:  "answered miss",
		world: func(t *testing.T) *world { return newWorld(t, Config{}) },
		qname: "1414.cachetest.nl.", qtype: dnswire.TypeAAAA,
	}, {
		// The client is answered SERVFAIL at 2 s; the outquery in flight
		// keeps the job until its answer lands at ~3 s and is cached.
		name: "deadline with an outquery in flight",
		world: delayed(Config{ClientTimeout: 2 * time.Second, InitialTimeout: 5 * time.Second},
			1500*time.Millisecond, ns1Addr, ns2Addr),
		qname: "1414.cachetest.nl.", qtype: dnswire.TypeAAAA,
		hold: 2500 * time.Millisecond,
		check: func(t *testing.T, w *world) {
			v := w.res.Cache().Peek(cache.Key{Name: "1414.cachetest.nl.", Type: dnswire.TypeAAAA}, 0)
			if st := w.res.Stats(); st.LateAnswers != 1 || !v.Hit {
				t.Errorf("late answer not absorbed: %+v, cached %v", st, v.Hit)
			}
		},
	}, {
		// An expired entry arms the 1.8 s stale timer; the fresh answer
		// comes first, and the timer still holds the job until it fires.
		name: "serve-stale timer outlives the answer",
		world: func(t *testing.T) *world {
			w := newWorld(t, Config{ServeStale: true})
			w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA) // TTL 60
			w.clk.RunFor(time.Minute)
			return w
		},
		qname: "1414.cachetest.nl.", qtype: dnswire.TypeAAAA,
		hold: time.Second,
	}, {
		// www.glueless.nl's servers have no glue: the job waits on a
		// subtask for ns.other.nl's address, and its 1.2 s deadline fires
		// while the subtask's nl exchange (~1.6 s) is in flight.
		name:  "glueless referral pins the parent",
		world: newGluelessWorld,
		qname: "www.glueless.nl.", qtype: dnswire.TypeAAAA,
		hold:   1400 * time.Millisecond,
		pinned: true,
	}, {
		// The first forwarder is silent: its outquery times out at 2 s and
		// the rotation's outquery to the second keeps the job past the
		// 2.5 s deadline until its answer lands at ~3 s.
		name: "forwarding rotation",
		world: func(t *testing.T) *world {
			w := delayed(Config{Forwarders: []netsim.Addr{"10.0.0.98", "10.0.0.99"},
				InitialTimeout: time.Second, ClientTimeout: 2500 * time.Millisecond},
				500*time.Millisecond, "10.0.0.98")(t)
			authoritative.New(mustZone(t, cachetestZoneText)).Attach(w.net, "10.0.0.98")
			return w
		},
		qname: "1414.cachetest.nl.", qtype: dnswire.TypeAAAA,
		hold: 2700 * time.Millisecond,
		check: func(t *testing.T, w *world) {
			if st := w.res.Stats(); st.Timeouts != 1 || st.LateAnswers != 1 {
				t.Errorf("want one rotation and a late answer: %+v", st)
			}
		},
	}, {
		// TC=1 at ~0.6 s; the TCP retry (a cold connection: two round
		// trips) outlives the 1.2 s deadline and is absorbed at ~1.8 s.
		name: "TC=1, then the TCP retry",
		world: func(t *testing.T) *world {
			w := newFatWorld(t, Config{TCPFallback: true,
				ClientTimeout: 1200 * time.Millisecond, InitialTimeout: 2 * time.Second})
			w.net.SetPairDelay(resAddr, ns1Addr, 300*time.Millisecond)
			w.net.SetPairDelay(resAddr, ns2Addr, 300*time.Millisecond)
			return w
		},
		qname: fatName, qtype: dnswire.TypeTXT,
		hold: 1400 * time.Millisecond,
		check: func(t *testing.T, w *world) {
			if st := w.res.Stats(); st.Truncated != 1 || st.LateAnswers != 1 {
				t.Errorf("want a TC=1 and a late TCP answer: %+v", st)
			}
		},
	}, {
		// udprun.Clock's case: the answer lands in milliseconds, but
		// Stop() loses to a deadline already queued; the job stays out
		// until that callback has run at 8 s.
		name: "Stop loses to a queued deadline",
		world: func(t *testing.T) *world {
			w := newWorld(t, Config{})
			w.res = NewResolver(lateClock{w.clk}, Config{
				RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}})
			w.res.Attach(w.net, "10.0.0.54")
			return w
		},
		qname: "1414.cachetest.nl.", qtype: dnswire.TypeAAAA,
		hold: time.Second,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world(t)
			r := w.res
			answers := 0
			w.net.Bind(clientAddr, func(netsim.Addr, []byte) { answers++ })
			r.Receive(clientAddr, clientQuery(t, tc.qname, tc.qtype))
			j := r.jobFor(tc.qname, tc.qtype)
			if j == nil {
				t.Fatal("the query started no job")
			}
			if tc.hold > 0 {
				w.clk.RunFor(tc.hold)
				if answers != 1 {
					t.Fatalf("%d answers by %v, want the client answered", answers, tc.hold)
				}
				if onFreeList(r, j) {
					t.Fatal("the job is back while a reference to it is live")
				}
			}
			w.clk.RunFor(time.Minute)
			if answers != 1 || r.inflight != 0 || w.clk.Pending() != 0 {
				t.Fatalf("%d answers, %d outqueries, %d timers left", answers, r.inflight, w.clk.Pending())
			}
			if onFreeList(r, j) == tc.pinned || r.jobsOut != 0 {
				t.Fatalf("job back %v (pinned %v), %d jobs out", onFreeList(r, j), tc.pinned, r.jobsOut)
			}
			if tc.check != nil {
				tc.check(t, w)
			}
			r.Receive(clientAddr, clientQuery(t, "9999.cachetest.nl.", dnswire.TypeAAAA))
			next := r.jobFor("9999.cachetest.nl.", dnswire.TypeAAAA)
			if (next == j) == tc.pinned {
				t.Errorf("next miss took the job: %v, pinned %v", next == j, tc.pinned)
			}
		})
	}
}

// TestJobRecycleAcrossResolvers: two resolvers on one network take their
// jobs from its one free list. A answers a miss, but its deadline's Stop()
// lost (lateClock), so the job stays out and B's miss cannot take it; once
// the queued deadline has run, the job is back and B's next miss takes it.
func TestJobRecycleAcrossResolvers(t *testing.T) {
	w := newWorld(t, Config{})
	a := NewResolver(lateClock{w.clk}, Config{
		RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}})
	a.Attach(w.net, "10.0.0.54")
	b := w.res
	if a.work() != b.work() {
		t.Fatal("two resolvers on one network have separate working sets")
	}
	answers := 0
	w.net.Bind(clientAddr, func(netsim.Addr, []byte) { answers++ })
	miss := func(r *Resolver, name string) *clientJob {
		r.Receive(clientAddr, clientQuery(t, name, dnswire.TypeAAAA))
		j := r.jobFor(name, dnswire.TypeAAAA)
		if j == nil {
			t.Fatalf("%s started no job", name)
		}
		return j
	}

	ja := miss(a, "1414.cachetest.nl.")
	w.clk.RunFor(time.Second) // answered; the 8 s deadline is still queued
	if answers != 1 || a.jobsOut != 1 || onFreeList(a, ja) {
		t.Fatalf("%d answers, A has %d jobs out, job back %v: want the job out until its deadline runs",
			answers, a.jobsOut, onFreeList(a, ja))
	}
	if jb := miss(b, "9999.cachetest.nl."); jb == ja {
		t.Fatal("B took a job A's queued deadline can still reach")
	}
	w.clk.RunFor(time.Minute)
	if answers != 2 || a.jobsOut != 0 || b.jobsOut != 0 || !onFreeList(b, ja) {
		t.Fatalf("%d answers, %d and %d jobs out, A's job back %v", answers, a.jobsOut, b.jobsOut, onFreeList(b, ja))
	}
	if next := miss(b, "1414.cachetest.nl."); next != ja {
		t.Error("B's next miss did not take the job A's deadline gave back")
	}
	w.clk.RunFor(time.Minute)
	if answers != 3 || b.jobsOut != 0 {
		t.Errorf("%d answers, B has %d jobs out", answers, b.jobsOut)
	}
}

// newGluelessWorld is newWorld plus glueless.nl, delegated by nl to
// ns.other.nl without glue and served at 192.0.2.9, with a 400 ms one-way
// delay to the nl server.
func newGluelessWorld(t *testing.T) *world {
	w := newWorld(t, Config{ClientTimeout: 1200 * time.Millisecond, InitialTimeout: 2 * time.Second})
	w.nl = authoritative.New(mustZone(t, nlZoneText+"glueless 3600 IN NS ns.other.nl.\n"),
		mustZone(t, otherZoneText+"ns IN A 192.0.2.9\n"))
	w.nl.Attach(w.net, nlAddr)
	authoritative.New(mustZone(t, `
$ORIGIN glueless.nl.
$TTL 300
@   IN SOA ns.other.nl. h.glueless.nl. 1 2 3 4 60
@   IN NS ns.other.nl.
www IN AAAA 2001:db8::99
`)).Attach(w.net, "192.0.2.9")
	w.net.SetPairDelay(resAddr, nlAddr, 400*time.Millisecond)
	return w
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
	record := func(addr netsim.Addr, tcp bool, m *dnswire.Message) {
		if _, dup := got[addr]; dup {
			t.Errorf("%s answered twice", addr)
		}
		got[addr] = seen{tcp, m}
	}
	ask := func(addr netsim.Addr, id uint16, rd bool, edns uint16, tcp bool) {
		q := dnswire.NewQuery(id, "1414.cachetest.nl.", dnswire.TypeAAAA)
		q.RecursionDesired = rd
		if edns > 0 {
			q.AddEDNS(edns, false)
		}
		w.net.Bind(addr, func(_ netsim.Addr, payload []byte) {
			m, err := dnswire.Unpack(payload)
			if err != nil {
				t.Errorf("%s: %v", addr, err)
				return
			}
			record(addr, false, m)
		})
		w.net.BindTCP(addr, func(_ netsim.Addr, m *dnswire.Message) {
			c := *m // the packet's; its sections are reused after the call
			c.Answers = append([]dnswire.RR(nil), m.Answers...)
			c.Additionals = append([]dnswire.RR(nil), m.Additionals...)
			record(addr, true, &c)
		})
		if tcp {
			w.net.SendTCP(addr, resAddr, q)
		} else {
			w.net.SendMsg(addr, resAddr, q)
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
	if len(w.res.work().coalesce) != 0 {
		t.Errorf("%d jobs left behind", len(w.res.work().coalesce))
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
	if len(w.res.work().coalesce) != 0 || w.res.inflight != 0 {
		t.Errorf("left behind: %d jobs, %d outqueries", len(w.res.work().coalesce), w.res.inflight)
	}
	// The same question again starts a fresh job and succeeds.
	w.net.SetPairDelay(resAddr, nlAddr, time.Millisecond)
	port.Send(resAddr, wire)
	w.clk.RunFor(30 * time.Second)
	if len(responses) != 2 || len(responses[1].Answers) != 1 {
		t.Fatalf("second ask: %v", responses)
	}
}

// TestJobKeepsServerBuffer: a forwarder with more upstreams than a task's
// inline server array grows a server list on its first miss. The recycled
// job keeps that list, emptied, so no address outlives the job and the
// next miss, which takes the same job, rebuilds its list in place.
func TestJobKeepsServerBuffer(t *testing.T) {
	var forwarders []netsim.Addr
	for i := 1; i <= 6; i++ {
		forwarders = append(forwarders, netsim.Addr("10.0.1."+string(rune('0'+i))))
	}
	w := newWorld(t, Config{Forwarders: forwarders})
	for _, f := range forwarders {
		authoritative.New(mustZone(t, cachetestZoneText)).Attach(w.net, f)
	}
	r := w.res
	answers := 0
	w.net.Bind(clientAddr, func(netsim.Addr, []byte) { answers++ })

	r.Receive(clientAddr, clientQuery(t, "1414.cachetest.nl.", dnswire.TypeAAAA))
	j := r.jobFor("1414.cachetest.nl.", dnswire.TypeAAAA)
	if j == nil || len(j.servers) != len(forwarders) {
		t.Fatalf("first miss: job %v", j)
	}
	buf := unsafe.SliceData(j.servers)
	w.clk.RunFor(time.Minute)
	if answers != 1 || !onFreeList(r, j) {
		t.Fatalf("%d answers, job back %v", answers, onFreeList(r, j))
	}
	for f := r.work().jobFree; f != nil; f = f.next {
		for _, s := range append(f.servers[:cap(f.servers)], f.servers0[:]...) {
			if s != "" {
				t.Fatalf("a free job still holds %s", s)
			}
		}
	}
	if cap(j.servers) < len(forwarders) || unsafe.SliceData(j.servers) != buf {
		t.Fatalf("the free job dropped its server list (cap %d)", cap(j.servers))
	}

	r.Receive(clientAddr, clientQuery(t, "9999.cachetest.nl.", dnswire.TypeAAAA))
	next := r.jobFor("9999.cachetest.nl.", dnswire.TypeAAAA)
	if next != j || len(next.servers) != len(forwarders) || unsafe.SliceData(next.servers) != buf {
		t.Fatal("the second miss did not reuse the job's server list")
	}
	w.clk.RunFor(time.Minute)
	if answers != 2 {
		t.Fatalf("%d answers, want 2", answers)
	}
}
