package recursive

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/stub"
)

// simClock is a clock engine the whole stack can run on: the timing
// wheel behind clock.Virtual and its heap reference, clocktest.Heap.
type simClock interface {
	clock.Clock
	Run()
	Pending() int
	Counters() (scheduled, fired, stopped int64)
}

// stackObs is one scheduled query's outcome. Calls counts callback
// invocations; exactly once is the contract.
type stackObs struct {
	Calls    int
	Timeout  bool
	Stale    bool
	ServFail bool
	RCode    dnswire.RCode
	TTLs     []uint32
}

// stackRun is everything a whole-stack run shows: every query's outcome,
// a hash of every packet arrival in order, the clock's counters, and the
// network and resolver totals.
type stackRun struct {
	Obs                       []stackObs
	Packets                   uint64
	Scheduled, Fired, Stopped int64
	Pending                   int
	Net                       netsim.Stats
	Iter, Fwd                 Stats
}

// runStack drives a random schedule drawn from seed through the test
// hierarchy on clk: an iterative resolver, a forwarder in front of it,
// three stub clients querying either, direct Resolve probes on either,
// and a loss window on both cachetest.nl servers. Queries start on whole
// seconds, so many start at the same instant and their order is the
// wheel's FIFO order. It drains the clock.
func runStack(t *testing.T, clk simClock, seed int64) stackRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := netsim.New(clk, seed)
	attachHierarchy(t, net)
	packets := fnv.New64a()
	net.AddTap(func(ev netsim.Event) {
		fmt.Fprintf(packets, "%d %s>%s %t %x\n", ev.Time.UnixNano(), ev.Src, ev.Dst, ev.Dropped, ev.Payload)
	})
	const fwdAddr = "10.0.0.54"
	iter := NewResolver(clk, Config{
		RootHints:  []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}},
		Cache:      cache.Config{Shards: 1 + rng.Intn(2)},
		ServeStale: rng.Intn(2) == 1,
		Seed:       seed,
	})
	iter.Attach(net, resAddr)
	fwd := NewResolver(clk, Config{Forwarders: []netsim.Addr{resAddr}, Seed: seed + 1})
	fwd.Attach(net, fwdAddr)
	clients := make([]*stub.Client, 3)
	for i := range clients {
		clients[i] = stub.New(clk, stub.Config{})
		clients[i].Attach(net, netsim.Addr(fmt.Sprintf("10.1.0.%d", i+1)))
	}

	start := time.Duration(20+rng.Intn(60)) * time.Second
	end := start + time.Duration(60+rng.Intn(90))*time.Second
	loss := []float64{0.5, 0.75, 0.9, 1}[rng.Intn(4)]
	for _, w := range []struct {
		at   time.Duration
		loss float64
	}{{start, loss}, {end, 0}} {
		clock.AfterFunc(clk, w.at, func() {
			net.SetInboundLoss(ns1Addr, w.loss)
			net.SetInboundLoss(ns2Addr, w.loss)
		})
	}

	// The 60 s record and its CNAME expire under the loss window; the
	// absent names miss the cache until their first NXDOMAIN lands.
	names := []string{"1414.cachetest.nl.", "9999.cachetest.nl.", "www.cachetest.nl.",
		"alias.cachetest.nl."}
	for i := 0; i < 4; i++ {
		names = append(names, fmt.Sprintf("x%d.cachetest.nl.", i))
	}
	resolvers := []*Resolver{iter, fwd}
	addrs := []netsim.Addr{resAddr, fwdAddr}
	obs := make([]stackObs, 60)
	for i := range obs {
		o := &obs[i]
		at := time.Duration(rng.Intn(120)) * time.Second
		name := names[rng.Intn(len(names))]
		via := rng.Intn(2)
		if rng.Intn(3) == 0 {
			r, shard := resolvers[via], rng.Intn(8)
			clock.AfterFunc(clk, at, func() {
				r.Resolve(name, dnswire.TypeAAAA, shard, func(res Result) {
					o.Calls++
					o.RCode, o.Stale, o.ServFail = res.RCode, res.Stale, res.ServFail
					for _, rr := range res.Answers {
						o.TTLs = append(o.TTLs, rr.TTL)
					}
				})
			})
			continue
		}
		c, dst := clients[rng.Intn(len(clients))], addrs[via]
		clock.AfterFunc(clk, at, func() {
			c.Query(dst, name, dnswire.TypeAAAA, func(res stub.Result) {
				o.Calls++
				if res.Err != nil {
					o.Timeout = true
					return
				}
				o.RCode = res.Msg.RCode
				for _, rr := range res.Msg.Answers {
					o.TTLs = append(o.TTLs, rr.TTL)
				}
			})
		})
	}
	clk.Run()

	run := stackRun{Obs: obs, Packets: packets.Sum64(), Pending: clk.Pending(), Net: net.Stats(),
		Iter: iter.Stats(), Fwd: fwd.Stats()}
	run.Scheduled, run.Fired, run.Stopped = clk.Counters()
	return run
}

// TestWheelHeapStackEquivalence runs the same random schedule through
// the whole stack once on the timing wheel and once on its heap
// reference: every callback fires exactly once, and every outcome, clock
// counter and network and resolver total matches. internal/clock's own
// differential covers raw schedules; this one covers the engines on top,
// where one reordered or re-timed callback shifts the network's loss
// draws and cascades into different packet fates.
func TestWheelHeapStackEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		wheel := runStack(t, clock.NewVirtual(epoch), seed)
		heap := runStack(t, clocktest.NewHeap(epoch), seed)
		for i, o := range wheel.Obs {
			if o.Calls != 1 {
				t.Errorf("seed %d: query %d called back %d times, want 1", seed, i, o.Calls)
			}
		}
		if !reflect.DeepEqual(wheel, heap) {
			t.Errorf("seed %d: the runs diverge:\n  wheel: %+v\n  heap:  %+v", seed, wheel, heap)
		}
		if t.Failed() {
			return // later seeds would only repeat the divergence
		}
	}
}
