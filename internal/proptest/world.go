package proptest

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/clock/clocktest"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/stub"
	"repro/internal/trace"
	"repro/internal/zone"
)

// Addresses of the generated hierarchy: a root, one TLD server for
// "test.", and two authoritatives for the leaf zone (the DDoS targets).
const (
	rootAddr  netsim.Addr = "198.41.0.4"
	tldAddr   netsim.Addr = "192.0.9.1"
	leaf1Addr netsim.Addr = "192.0.9.11"
	leaf2Addr netsim.Addr = "192.0.9.12"
)

var worldEpoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// ResolverAddr returns the network address of the scenario's i-th
// resolver.
func ResolverAddr(i int) netsim.Addr {
	return netsim.Addr(fmt.Sprintf("10.0.0.%d", i+1))
}

func clientAddr(i int) netsim.Addr {
	return netsim.Addr(fmt.Sprintf("10.1.0.%d", i+1))
}

// Observation records one scheduled query's outcome.
type Observation struct {
	Query Query
	// Calls counts callback invocations; the exactly-once invariant
	// requires it to be 1 after the run drains.
	Calls   int
	Timeout bool
	RCode   dnswire.RCode
	// Stale and ServFail are visible on direct probes only (the wire
	// carries no staleness marker).
	Stale      bool
	ServFail   bool
	AnswerTTLs []uint32
}

// RunResult is everything the invariant checks need from one run.
type RunResult struct {
	Scenario Scenario
	Obs      []*Observation
	Stats    []recursive.Stats
	Net      netsim.Stats

	Scheduled, Fired, Stopped int64
	Pending                   int

	Report     *metrics.Report
	ReportJSON []byte
}

// SimClock is the clock driver a World needs: scheduling plus the run
// loop and its accounting. Both the timing-wheel clock (clock.Virtual)
// and the heap-backed reference (clocktest.Heap) satisfy it, which is what
// lets the differential property test run the same scenario on either
// engine and demand identical results.
type SimClock interface {
	clock.Clock
	Run()
	RunUntil(deadline time.Time)
	RunFor(d time.Duration)
	Pending() int
	Counters() (scheduled, fired, stopped int64)
}

var (
	_ SimClock = (*clock.Virtual)(nil)
	_ SimClock = (*clocktest.Heap)(nil)
)

// World is a materialized scenario: hierarchy, resolvers, and clients on
// one virtual clock. Tests that need finer control (pair delays, manual
// resolution phases) build a World and drive the pieces directly instead
// of calling Run.
type World struct {
	Clk       SimClock
	Net       *netsim.Network
	Auths     []*authoritative.Server // root, tld, leaf1, leaf2
	Resolvers []*recursive.Resolver
	Clients   []*stub.Client
	sc        Scenario
}

// NewWorld builds the scenario's ecosystem without scheduling any
// queries, on the production timing-wheel clock, untraced.
func NewWorld(sc Scenario) (*World, error) {
	return NewWorldOnClock(sc, clock.NewVirtual(worldEpoch), nil)
}

// NewWorldOnClock is NewWorld on a caller-supplied clock engine. The
// clock must start at the world epoch (time.Date(2018, 5, 1, ...)) or
// TTL arithmetic in the scenario invariants will not line up. A non-nil
// tr arms a trace buffer on the network before anything attaches, so
// every engine records into it; w.Net.Trace() holds the run's events.
func NewWorldOnClock(sc Scenario, clk SimClock, tr *trace.Config) (*World, error) {
	w := &World{Clk: clk, sc: sc}
	w.Net = netsim.New(w.Clk, sc.Seed)
	if tr != nil {
		w.Net.SetTrace(trace.NewBuffer(w.Clk, worldEpoch, *tr))
	}

	rootZone, tldZone, leafZone, err := buildZones(sc)
	if err != nil {
		return nil, err
	}
	root := authoritative.New(rootZone)
	tld := authoritative.New(tldZone)
	leaf1 := authoritative.New(leafZone)
	leaf2 := authoritative.New(leafZone)
	root.Attach(w.Net, rootAddr)
	tld.Attach(w.Net, tldAddr)
	leaf1.Attach(w.Net, leaf1Addr)
	leaf2.Attach(w.Net, leaf2Addr)
	w.Auths = []*authoritative.Server{root, tld, leaf1, leaf2}

	for i, p := range sc.Resolvers {
		cfg := recursive.Config{
			Cache:          cache.Config{Shards: p.Shards, MinTTL: p.MinTTL, MaxTTL: p.MaxTTL},
			ServeStale:     p.ServeStale,
			InitialTimeout: p.InitialTimeout,
			Seed:           sc.Seed*1000 + int64(i) + 1,
		}
		if p.Forwarder {
			for _, b := range p.Backends {
				cfg.Forwarders = append(cfg.Forwarders, ResolverAddr(b))
			}
		} else {
			cfg.RootHints = []recursive.ServerHint{{Name: "a.root.", Addr: rootAddr}}
		}
		r := recursive.NewResolver(w.Clk, cfg)
		r.Attach(w.Net, ResolverAddr(i))
		w.Resolvers = append(w.Resolvers, r)
	}
	for i := range sc.Clients {
		c := stub.New(w.Clk, stub.Config{})
		c.Attach(w.Net, clientAddr(i))
		w.Clients = append(w.Clients, c)
	}
	return w, nil
}

// buildZones renders the three zone files from the scenario parameters.
func buildZones(sc Scenario) (root, tld, leaf *zone.Zone, err error) {
	leafRel := strings.TrimSuffix(sc.LeafZone, ".test.")
	rootText := `$ORIGIN .
$TTL 518400
@ IN SOA a.root. nstld.root. 1 1800 900 604800 86400
@ IN NS a.root.
a.root. IN A 198.41.0.4
test. 172800 IN NS ns.tld.test.
ns.tld.test. 172800 IN A 192.0.9.1
`
	tldText := fmt.Sprintf(`$ORIGIN test.
$TTL 86400
@ IN SOA ns.tld.test. host.test. 1 1800 900 604800 3600
@ IN NS ns.tld
ns.tld IN A 192.0.9.1
%[1]s 3600 IN NS ns1.%[1]s
%[1]s 3600 IN NS ns2.%[1]s
ns1.%[1]s 3600 IN A 192.0.9.11
ns2.%[1]s 3600 IN A 192.0.9.12
`, leafRel)
	var b strings.Builder
	fmt.Fprintf(&b, "$ORIGIN %s\n$TTL %d\n", sc.LeafZone, sc.LeafTTL)
	fmt.Fprintf(&b, "@ IN SOA ns1.%[1]s host.%[1]s 1 7200 3600 864000 %[2]d\n",
		sc.LeafZone, sc.NegTTL)
	b.WriteString("@ IN NS ns1\n@ IN NS ns2\n")
	b.WriteString("ns1 3600 IN A 192.0.9.11\nns2 3600 IN A 192.0.9.12\n")
	for i, name := range sc.Names {
		rel := strings.TrimSuffix(name, "."+sc.LeafZone)
		fmt.Fprintf(&b, "%s %d IN AAAA fd00::%x\n", rel, sc.LeafTTL, i+1)
	}

	if root, err = zone.ParseString(rootText, ""); err != nil {
		return nil, nil, nil, fmt.Errorf("root zone: %w", err)
	}
	if tld, err = zone.ParseString(tldText, ""); err != nil {
		return nil, nil, nil, fmt.Errorf("tld zone: %w", err)
	}
	if leaf, err = zone.ParseString(b.String(), ""); err != nil {
		return nil, nil, nil, fmt.Errorf("leaf zone: %w", err)
	}
	return root, tld, leaf, nil
}

// Run schedules the scenario's queries and attack window, drains the
// event loop to completion, and collects observations, statistics, and
// the deterministic run report with its invariant verdicts.
func (w *World) Run() *RunResult {
	sc := w.sc

	if sc.AttackDur > 0 {
		targets := []netsim.Addr{leaf1Addr, leaf2Addr}
		if sc.AttackTLD {
			targets = append(targets, tldAddr)
		}
		w.Clk.AfterFunc(sc.AttackStart, func() {
			for _, a := range targets {
				w.Net.SetInboundLoss(a, sc.AttackLoss)
			}
		})
		w.Clk.AfterFunc(sc.AttackStart+sc.AttackDur, func() {
			for _, a := range targets {
				w.Net.SetInboundLoss(a, 0)
			}
		})
	}

	obs := make([]*Observation, len(sc.Queries))
	for i := range sc.Queries {
		q := sc.Queries[i]
		o := &Observation{Query: q}
		obs[i] = o
		if q.Direct {
			r := w.Resolvers[q.Resolver]
			w.Clk.AfterFunc(q.At, func() {
				r.Resolve(q.Name, dnswire.TypeAAAA, q.Shard, func(res recursive.Result) {
					o.Calls++
					o.RCode = res.RCode
					o.Stale = res.Stale
					o.ServFail = res.ServFail
					for _, rr := range res.Answers {
						o.AnswerTTLs = append(o.AnswerTTLs, rr.TTL)
					}
				})
			})
			continue
		}
		c := w.Clients[q.Client]
		dst := ResolverAddr(q.Resolver)
		w.Clk.AfterFunc(q.At, func() {
			c.Query(dst, q.Name, dnswire.TypeAAAA, func(res stub.Result) {
				o.Calls++
				if res.Err != nil {
					o.Timeout = true
					return
				}
				o.RCode = res.Msg.RCode
				for _, rr := range res.Msg.Answers {
					o.AnswerTTLs = append(o.AnswerTTLs, rr.TTL)
				}
			})
		})
	}

	// Drain everything: scheduled queries, retries, stale timers, client
	// timeouts, and the attack window. The virtual clock runs dry, which
	// is itself part of the conservation invariant (Pending == 0).
	w.Clk.Run()

	res := &RunResult{
		Scenario: sc,
		Obs:      obs,
		Net:      w.Net.Stats(),
		Pending:  w.Clk.Pending(),
	}
	res.Scheduled, res.Fired, res.Stopped = w.Clk.Counters()
	for _, r := range w.Resolvers {
		res.Stats = append(res.Stats, r.Stats())
	}
	res.Report = w.buildReport(res)
	var buf bytes.Buffer
	if err := res.Report.WriteJSON(&buf); err == nil {
		res.ReportJSON = buf.Bytes()
	}
	return res
}

// buildReport assembles the run's registry snapshot and invariant
// verdicts into a metrics.Report. Reports carry no wall-clock data, so
// identical seeds marshal to identical bytes.
func (w *World) buildReport(res *RunResult) *metrics.Report {
	reg := metrics.NewRegistry()
	for i, r := range w.Resolvers {
		r.CollectMetrics(reg.Scope(fmt.Sprintf("resolver-%02d", i)))
		r.Cache().CollectMetrics(reg.Scope(fmt.Sprintf("cache-%02d", i)))
	}
	authNames := []string{"auth-root", "auth-tld", "auth-leaf1", "auth-leaf2"}
	for i, a := range w.Auths {
		a.CollectMetrics(reg.Scope(authNames[i]))
	}
	w.Net.CollectMetrics(reg.Scope("netsim"))

	cs := reg.Scope("clock")
	cs.Add("scheduled", res.Scheduled)
	cs.Add("fired", res.Fired)
	cs.Add("stopped", res.Stopped)
	cs.Add("pending", int64(res.Pending))

	hs := reg.Scope("harness")
	var calls, timeouts, answered int64
	for _, o := range res.Obs {
		calls += int64(o.Calls)
		if o.Calls == 0 {
			continue
		}
		if o.Timeout {
			timeouts++
		} else {
			answered++
		}
	}
	hs.Add("queries_scheduled", int64(len(res.Obs)))
	hs.Add("callbacks", calls)
	hs.Add("timeouts", timeouts)
	hs.Add("answered", answered)

	return &metrics.Report{
		Name: fmt.Sprintf("proptest-seed%d", w.sc.Seed),
		Labels: map[string]string{
			"seed":        strconv.FormatInt(w.sc.Seed, 10),
			"leaf_zone":   w.sc.LeafZone,
			"leaf_ttl":    strconv.FormatUint(uint64(w.sc.LeafTTL), 10),
			"resolvers":   strconv.Itoa(len(w.sc.Resolvers)),
			"clients":     strconv.Itoa(len(w.sc.Clients)),
			"queries":     strconv.Itoa(len(w.sc.Queries)),
			"attack_loss": strconv.FormatFloat(w.sc.AttackLoss, 'g', -1, 64),
		},
		Metrics:    reg.Snapshot(),
		Invariants: Check(res),
	}
}
