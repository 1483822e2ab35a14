package main

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/stub"
	"repro/internal/udprun"
	"repro/internal/zone"
)

// Layer probes: each calls one layer's public functions directly, on
// inputs taken from the workload, for about `d` of host time, and
// reports host nanoseconds (and heap allocations) per call. Every probe
// is one span under parent.

// prober runs layer probes into a metric map.
type prober struct {
	rec    *recorder
	parent int
	d      time.Duration
	values map[string]float64
}

var probeEpoch = time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)

// measure calls op(0), op(1), ... for about p.d and stores ns per call
// under nsName and, when allocsName is set, allocations per call.
func (p *prober) measure(nsName, allocsName string, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for batch := 1; time.Since(start) < p.d; batch = min(2*batch, 4096) {
		for k := 0; k < batch; k++ {
			op(n)
			n++
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	p.rec.add(p.parent, "probe "+nsName, "", start, end)
	ns := float64(end.Sub(start).Nanoseconds()) / float64(n)
	p.values[nsName] = ns
	if allocsName != "" {
		p.values[allocsName] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return ns
}

// wire replays captured wire messages through the codec: the query,
// referral and answer mix is the workload's own.
func (p *prober) wire(payloads [][]byte) error {
	if len(payloads) == 0 {
		return fmt.Errorf("no wire messages captured")
	}
	msgs := make([]*dnswire.Message, len(payloads))
	total := 0
	for i, b := range payloads {
		m, err := dnswire.Unpack(b)
		if err != nil {
			return fmt.Errorf("captured message %d: %w", i, err)
		}
		msgs[i] = m
		total += len(b)
	}
	p.values["dnswire.msg_bytes_mean"] = float64(total) / float64(len(payloads))
	var scratch dnswire.Message
	var failed error
	p.measure("dnswire.unpack_ns", "dnswire.unpack_allocs", func(i int) {
		if err := dnswire.UnpackInto(&scratch, payloads[i%len(payloads)]); err != nil {
			failed = err
		}
	})
	buf := make([]byte, 0, 1024)
	p.measure("dnswire.pack_ns", "dnswire.pack_allocs", func(i int) {
		var err error
		if buf, err = msgs[i%len(msgs)].AppendPack(buf[:0]); err != nil {
			failed = err
		}
	})
	return failed
}

// zoneAndAuth probes zone lookups and the authoritative wire handler
// with the workload's zone and the queries that reached it; zoneText is
// the same zone in master format, for the parser.
func (p *prober) zoneAndAuth(z *zone.Zone, zoneText string, queries [][]byte) error {
	if len(queries) == 0 {
		return fmt.Errorf("no authoritative queries captured")
	}
	type question struct {
		name  string
		qtype dnswire.Type
	}
	qs := make([]question, len(queries))
	for i, b := range queries {
		m, err := dnswire.Unpack(b)
		if err != nil || len(m.Questions) != 1 {
			return fmt.Errorf("captured query %d is not a one-question message", i)
		}
		qs[i] = question{dnswire.CanonicalName(m.Questions[0].Name), m.Questions[0].Type}
	}
	var failed error
	p.measure("zone.lookup_ns", "", func(i int) {
		q := qs[i%len(qs)]
		if res := z.Lookup(q.name, q.qtype); res.Kind == zone.NotInZone {
			failed = fmt.Errorf("zone lookup of %s: %s", q.name, res.Kind)
		}
	})
	records := z.Len()
	ns := p.measure("zone.parse_ns_per_rr", "", func(int) {
		parsed, err := zone.ParseString(zoneText, "")
		if err != nil || parsed.Len() != records {
			failed = fmt.Errorf("re-parsing the workload zone: %v", err)
		}
	})
	p.values["zone.parse_ns_per_rr"] = ns / float64(records)
	srv := authoritative.New(z)
	p.measure("authoritative.handle_wire_ns", "authoritative.handle_wire_allocs", func(i int) {
		if srv.HandleWire(queries[i%len(queries)]) == nil {
			failed = fmt.Errorf("authoritative dropped captured query %d", i%len(queries))
		}
	})
	return failed
}

// cacheOps probes the cache with the workload's names and TTL.
func (p *prober) cacheOps(names []string, ttl uint32) error {
	const capacity = 4096
	clk := clock.NewVirtual(probeEpoch)
	entry := func(name string) (cache.Key, cache.Entry) {
		return cache.Key{Name: name, Type: dnswire.TypeAAAA}, cache.Entry{
			Rank: cache.RankAnswer,
			Records: []dnswire.RR{{Name: name, Class: dnswire.ClassIN, TTL: ttl,
				Data: dnswire.AAAA{Addr: wildcardAddr}}},
		}
	}
	warm := cache.New(clk, cache.Config{})
	keys := make([]cache.Key, len(names))
	absent := make([]cache.Key, len(names))
	for i, name := range names {
		k, e := entry(name)
		warm.Put(k, e, 0)
		keys[i] = k
		absent[i] = cache.Key{Name: "absent-" + name, Type: dnswire.TypeAAAA}
	}
	var failed error
	p.measure("cache.get_hit_ns", "", func(i int) {
		if !warm.Get(keys[i%len(keys)], 0).Hit {
			failed = fmt.Errorf("cache miss on a stored key")
		}
	})
	p.measure("cache.peek_ns", "", func(i int) {
		if !warm.Peek(keys[i%len(keys)], 0).Hit {
			failed = fmt.Errorf("cache peek miss on a stored key")
		}
	})
	p.measure("cache.get_miss_ns", "", func(i int) {
		if warm.Get(absent[i%len(absent)], 0).Hit {
			failed = fmt.Errorf("cache hit on an absent key")
		}
	})
	// put_ns: inserts into a cache with room (flushed each time every
	// name is in); put_evict_ns: the cache is at Capacity, so each insert
	// of a name not held evicts the least recently used.
	_, e := entry(names[0])
	cold := cache.New(clk, cache.Config{})
	p.measure("cache.put_ns", "", func(i int) {
		if i%len(keys) == 0 {
			cold.Flush()
		}
		cold.Put(keys[i%len(keys)], e, 0)
	})
	full := cache.New(clk, cache.Config{Capacity: capacity})
	spill := make([]cache.Key, 2*capacity)
	for i := range spill {
		spill[i] = cache.Key{Name: "spill" + strconv.Itoa(i) + "." + names[0], Type: dnswire.TypeAAAA}
		full.Put(spill[i], e, 0)
	}
	p.measure("cache.put_evict_ns", "", func(i int) { full.Put(spill[i%len(spill)], e, 0) })
	return failed
}

// clockAndNet probes the virtual clock and the simulated network; loss is
// the workload's inbound loss for the drop case.
func (p *prober) clockAndNet(loss float64) error {
	clk := clock.NewVirtual(probeEpoch)
	fired := 0
	fire := func(any) { fired++ }
	p.measure("clock.schedule_fire_ns", "", func(i int) {
		clk.AfterFuncArg(time.Duration(1+i%977)*time.Millisecond, fire, nil)
		if i%1024 == 1023 {
			clk.Run()
		}
	})
	clk.Run()
	p.measure("clock.schedule_stop_ns", "", func(i int) {
		clk.AfterFuncRef(time.Duration(1+i%977)*time.Millisecond, fire, nil).Stop()
	})
	clk.Run()

	payload, err := dnswire.NewQuery(1, "1.cachetest.nl.", dnswire.TypeAAAA).Pack()
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		loss float64
	}{{"netsim.send_deliver_ns", 0}, {"netsim.send_drop_ns", loss}} {
		net := netsim.New(clk, 1)
		delivered := 0
		net.Bind("sink", func(netsim.Addr, []byte) { delivered++ })
		net.SetInboundLoss("sink", c.loss)
		p.measure(c.name, "", func(i int) {
			net.Send("src", "sink", payload)
			if i%1024 == 1023 {
				clk.Run()
			}
		})
		clk.Run()
		if st := net.Stats(); st.Delivered+st.Dropped != st.Sent || int64(delivered) != st.Delivered {
			return fmt.Errorf("%s: sent %d, delivered %d, dropped %d", c.name, st.Sent, st.Delivered, st.Dropped)
		}
	}
	return nil
}

// resolver probes the recursive resolver on the virtual clock, attached
// to net with the given hints: hit resolves a cached name, cold resolves
// names from coldNames after a cache flush (the whole referral chain the
// workload's hierarchy has).
func (p *prober) resolver(clk *clock.Virtual, net *netsim.Network, hints []recursive.ServerHint,
	hitName string, coldNames []string) error {

	r := recursive.NewResolver(clk, recursive.Config{RootHints: hints, Seed: 1})
	r.Attach(net, "probe-resolver")
	var failed error
	answered := func(name string) func(recursive.Result) {
		return func(res recursive.Result) {
			if res.ServFail || len(res.Answers) == 0 {
				failed = fmt.Errorf("resolving %s failed", name)
			}
		}
	}
	r.Resolve(hitName, dnswire.TypeAAAA, 0, answered(hitName))
	clk.Run()
	if failed != nil {
		return failed
	}
	onHit := answered(hitName)
	// The resolver hands every answer, cached ones too, to its caller
	// through a clock event, so each probe call also runs the clock.
	p.measure("recursive.resolve_hit_ns", "", func(int) {
		r.Resolve(hitName, dnswire.TypeAAAA, 0, onHit)
		clk.Run()
	})
	q := dnswire.NewQuery(7, hitName, dnswire.TypeAAAA)
	p.measure("recursive.handle_query_hit_ns", "", func(int) {
		r.HandleQuery(q, func(m *dnswire.Message) {
			if m.RCode != dnswire.RCodeNoError || len(m.Answers) == 0 {
				failed = fmt.Errorf("HandleQuery(%s): rcode %s", hitName, m.RCode)
			}
		})
		clk.Run()
	})
	p.measure("recursive.resolve_cold_ns", "recursive.resolve_cold_allocs", func(i int) {
		name := coldNames[i%len(coldNames)]
		r.Cache().Flush()
		r.Resolve(name, dnswire.TypeAAAA, 0, answered(name))
		clk.Run()
	})
	return failed
}

// stubRound probes one stub query and reply through netsim against a
// trivial responder.
func (p *prober) stubRound(name string) error {
	clk := clock.NewVirtual(probeEpoch)
	net := netsim.New(clk, 1)
	var q, resp dnswire.Message
	var port *netsim.Port
	buf := make([]byte, 0, 512)
	port = net.Bind("responder", func(src netsim.Addr, payload []byte) {
		if dnswire.UnpackInto(&q, payload) != nil {
			return
		}
		resp.ResetResponse(&q)
		resp.Answers = append(resp.Answers, dnswire.RR{Name: q.Questions[0].Name,
			Class: dnswire.ClassIN, TTL: 60, Data: dnswire.AAAA{Addr: wildcardAddr}})
		var err error
		if buf, err = resp.AppendPack(buf[:0]); err == nil {
			port.Send(src, buf)
		}
	})
	c := stub.New(clk, stub.Config{})
	c.Attach(net, "stub")
	var failed error
	p.measure("stub.query_round_ns", "", func(int) {
		c.Query("responder", name, dnswire.TypeAAAA, func(res stub.Result) {
			if res.Err != nil {
				failed = res.Err
			}
		})
		clk.Run()
	})
	return failed
}

// udpFloor measures the real-socket floor under both daemon latencies: a
// loopback echo through udprun's Listen/Serve/Send with a handler that
// only sends the packet back, and the cost of posting to a running Loop.
func (p *prober) udpFloor() error {
	loop := udprun.NewLoop()
	conn, err := udprun.Listen("127.0.0.1:0", loop)
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn.Serve(func(src netsim.Addr, payload []byte) { conn.Send(src, payload) })
	}()
	ran := make(chan struct{})
	go func() { defer close(ran); loop.Run() }()
	defer func() {
		conn.Close()
		<-served
		loop.Close()
		<-ran
	}()

	client, err := net.Dial("udp", string(conn.Addr()))
	if err != nil {
		return err
	}
	defer client.Close()
	payload, err := dnswire.NewQuery(1, zoneName(0), dnswire.TypeAAAA).Pack()
	if err != nil {
		return err
	}
	buf := make([]byte, 512)
	var failed error
	ns := p.measure("udprun.echo_rtt_us", "", func(int) {
		client.Write(payload)
		client.SetReadDeadline(time.Now().Add(replyTimeout))
		if _, err := client.Read(buf); err != nil {
			failed = fmt.Errorf("udprun echo: %w", err)
		}
	})
	p.values["udprun.echo_rtt_us"] = ns / 1e3

	done := make(chan struct{}, 1)
	p.measure("udprun.loop_post_ns", "", func(i int) {
		if i%256 == 255 {
			loop.Post(func() { done <- struct{}{} })
			<-done
			return
		}
		loop.Post(func() {})
	})
	return failed
}

// isQuery reports whether a wire message has the QR bit clear.
func isQuery(b []byte) bool { return len(b) >= 12 && b[2]&0x80 == 0 }

// layerRow is one line of the layer-share table.
type layerRow struct {
	layer  string
	what   string
	count  float64
	ns     float64
	budget bool // counted into budget_coverage (the rows that do not overlap)
}

// printBudget prints count x probe ns per layer as a share of the traced
// cell's simulate phase, and returns the coverage of the non-overlapping
// rows.
func printBudget(rows []layerRow, simulateS float64) float64 {
	fmt.Printf("  layer share of simulate (%.3f s host time, traced cell): count x probe ns\n", simulateS)
	fmt.Printf("  %-14s %-34s %12s %9s %8s\n", "layer", "operation", "count", "ns", "share")
	covered := 0.0
	for _, r := range rows {
		share := ratio(r.count*r.ns/1e9, simulateS)
		mark := " "
		if r.budget {
			covered += share
		} else {
			mark = "*"
		}
		fmt.Printf("  %-14s %-34s %12.0f %9.1f %7.1f%%%s\n", r.layer, r.what, r.count, r.ns, 100*share, mark)
	}
	fmt.Printf("  %s\n", strings.Repeat("-", 82))
	fmt.Printf("  budget_coverage %.3f (rows marked * are inclusive of rows above them and are left out)\n", covered)
	return covered
}
