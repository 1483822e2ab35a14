// Package experiment reproduces the paper's measurement campaigns: the
// caching baseline (§3, Tables 1–3, Figures 3/13), the DDoS emulations
// (§5–6, Table 4, Figures 6–12, 14–15), and the glue-vs-authoritative TTL
// study (Appendix A, Table 5). Each runner assembles a testbed — the DNS
// hierarchy root → .nl → cachetest.nl plus a calibrated population of
// recursive resolvers — on the deterministic simulator and returns the
// rows/series the paper reports.
package experiment

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/vantage"
	"repro/internal/zone"
)

// Well-known addresses of the emulated hierarchy.
const (
	RootAddr = "198.41.0.4"
	TLDAddr  = "194.0.28.53"
)

// Domain is the test zone, as in the paper.
const Domain = "cachetest.nl."

// RotationInterval is the zone-file rotation period (§3.2: serial
// incremented and zone reloaded every 10 minutes).
const RotationInterval = 10 * time.Minute

// AuthEvent is one query arrival at an authoritative, observed by the
// pre-drop tap (§6.1: the paper measures queries before the DDoS drops
// them). It holds no pointer, so the collector never scans the log: Src
// and QName index the testbed's tables (see AuthSrc, AuthQName), Dst
// indexes AuthAddrs.
type AuthEvent struct {
	At      time.Duration // since Testbed.Start
	Src     uint32
	QName   uint32
	QType   dnswire.Type
	Dst     uint8
	Dropped bool
}

// TestbedConfig sizes a testbed.
type TestbedConfig struct {
	// Probes is the number of emulated Atlas probes.
	Probes int
	// TTL is the record TTL of the probe AAAA records.
	TTL uint32
	// NegTTL is the zone's negative TTL (SOA minimum); the paper uses
	// 60 s.
	NegTTL uint32
	// Auths is the number of cachetest.nl authoritatives (the paper runs
	// two).
	Auths int
	// Seed drives every random choice in the testbed.
	Seed int64
	// Population tunes the resolver mix; zero value uses the calibrated
	// defaults.
	Population PopulationConfig
	// KeepAuthLog retains the per-query authoritative tap (needed for
	// Figures 10–12 and Table 3; costs memory on large runs).
	KeepAuthLog bool
	// Trace, when non-nil, enables deterministic query-lifecycle tracing:
	// one ring buffer per testbed, set on the network before anything
	// attaches, so every engine on it inherits it.
	Trace *trace.Config
	// timeline is the cell's per-bucket series collector, inherited the
	// same way. The family builds it: the bin layout needs the run's
	// horizon, which only the family knows (DDoS scenarios only so far).
	timeline *timeline.Collector
	// ExtraNL appends records to this testbed's copy of the nl. TLD zone
	// — delegations (plus glue) for adversary-controlled zones. The
	// shared, memoized nl zone is immutable, so setting this clones it
	// for the testbed instead.
	ExtraNL []dnswire.RR
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.Probes == 0 {
		c.Probes = 1200
	}
	if c.TTL == 0 {
		c.TTL = 3600
	}
	if c.NegTTL == 0 {
		c.NegTTL = 60
	}
	if c.Auths == 0 {
		c.Auths = 2
	}
	c.Population = c.Population.withDefaults()
	return c
}

// Testbed is a fully assembled simulated DNS ecosystem.
type Testbed struct {
	Cfg   TestbedConfig
	Clk   *clock.Virtual
	Net   *netsim.Network
	Start time.Time

	AuthAddrs []netsim.Addr
	AuthZone  *zone.Zone // shared by all cachetest.nl authoritatives
	Auths     []*authoritative.Server
	Pop       *Population
	Fleet     *vantage.Fleet

	serial0 uint16
	// AuthLog is the pre-drop tap log (kept with KeepAuthLog), in arrival
	// order across fixed-size chunks: logging an event never re-copies
	// the events before it.
	AuthLog   [][]AuthEvent
	authSrcs  internTable[netsim.Addr]
	authNames internTable[string]

	// Tap totals, counted on every run (the AuthLog itself is only kept
	// with KeepAuthLog). Arrivals are pre-drop, deliveries post-drop.
	tapArrivals  metrics.Counter
	tapDropped   metrics.Counter
	tapDelivered metrics.Counter

	// The adversary experiments attach actors outside the population:
	// dedicated per-probe resolvers and the attack-side machinery.
	// CollectMetrics folds them in so their counters reach run reports.
	advResolvers []*recursive.Resolver
	advCollect   func(metrics.Scope)
}

// testbedStart is the fixed virtual start time of every testbed (the
// paper's measurement began 2018-05-01). Cells of a sharded run all
// share it, which is what lets their round series merge bin-for-bin.
var testbedStart = time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)

// NewTestbed builds the hierarchy, resolver population, and probe fleet.
// Probe IDs are uint16, so it panics when cfg.Probes exceeds
// MaxShardProbes rather than wrap them; larger populations run as
// several cells (see RunConfig.ShardProbes).
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg = cfg.withDefaults()
	if cfg.Probes > MaxShardProbes {
		panic("experiment: NewTestbed: " + strconv.Itoa(cfg.Probes) +
			" probes exceed MaxShardProbes (" + strconv.Itoa(MaxShardProbes) +
			"): probe IDs are 16-bit")
	}
	tb := &Testbed{
		Cfg:   cfg,
		Start: testbedStart,
	}
	tb.Clk = clock.NewVirtual(tb.Start)
	tb.Net = netsim.New(tb.Clk, cfg.Seed)
	// The network owns the cell's observers; everything built below reads
	// them from it.
	if cfg.Trace != nil {
		tb.Net.SetTrace(trace.NewBuffer(tb.Clk, tb.Start, *cfg.Trace))
	}
	tb.Net.SetTimeline(cfg.timeline)

	tb.AuthAddrs = authAddrs(cfg.Auths)

	tb.buildZones()
	tb.installTap()

	tb.Pop = BuildPopulation(tb.Clk, tb.Net, cfg.Probes, Domain,
		[]recursive.ServerHint{{Name: "a.root-servers.net.", Addr: RootAddr}},
		cfg.Population, cfg.Seed+1)
	tb.Fleet = vantage.NewFleet(tb.Clk, tb.Pop.Probes, cfg.Seed+2)
	return tb
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// sharedHierarchy memoizes the root and nl zones plus the authoritative
// address list. Both zones are immutable once built (only the per-testbed
// cachetest.nl zone sees Replace/BumpSerial from rotations and the glue
// study), zone.Zone is safe for concurrent readers, and their contents
// depend only on the authoritative count — so every testbed with the same
// count shares one copy instead of re-parsing ~15 records per build.
var sharedHierarchy struct {
	mu    sync.Mutex
	addrs map[int][]netsim.Addr
	root  *zone.Zone
	nl    map[int]*zone.Zone
}

// authAddrs returns the shared cachetest.nl authoritative address list for
// an n-server testbed. Callers treat the slice as read-only.
func authAddrs(n int) []netsim.Addr {
	h := &sharedHierarchy
	h.mu.Lock()
	defer h.mu.Unlock()
	if a, ok := h.addrs[n]; ok {
		return a
	}
	a := make([]netsim.Addr, n)
	for i := range a {
		a[i] = netsim.Addr("192.0.2." + itoa(i+1))
	}
	if h.addrs == nil {
		h.addrs = make(map[int][]netsim.Addr)
	}
	h.addrs[n] = a
	return a
}

// hierarchyZones returns the shared root and nl zones delegating to the
// given authoritatives.
func hierarchyZones(authAddrs []netsim.Addr) (root, nl *zone.Zone) {
	h := &sharedHierarchy
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.root == nil {
		h.root = buildRootZone()
		h.nl = make(map[int]*zone.Zone)
	}
	nl = h.nl[len(authAddrs)]
	if nl == nil {
		nl = buildNLZone(authAddrs)
		h.nl[len(authAddrs)] = nl
	}
	return h.root, nl
}

func buildRootZone() *zone.Zone {
	rootZone := zone.New(".")
	rootZone.MustAdd(dnswire.RR{Name: ".", TTL: 518400, Data: dnswire.SOA{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 2018050100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}})
	rootZone.MustAdd(dnswire.RR{Name: ".", TTL: 518400, Data: dnswire.NS{Host: "a.root-servers.net."}})
	rootZone.MustAdd(dnswire.RR{Name: "a.root-servers.net.", TTL: 518400,
		Data: dnswire.A{Addr: dnswire.MustAddr(RootAddr)}})
	rootZone.MustAdd(dnswire.RR{Name: "nl.", TTL: 172800, Data: dnswire.NS{Host: "ns1.dns.nl."}})
	rootZone.MustAdd(dnswire.RR{Name: "ns1.dns.nl.", TTL: 172800,
		Data: dnswire.A{Addr: dnswire.MustAddr(TLDAddr)}})
	rootZone.MustAdd(dnswire.RR{Name: "nl.", TTL: 86400, Data: dnswire.DS{
		KeyTag: 34112, Algorithm: 8, DigestType: 2, Digest: []byte{0xaa, 0xbb},
	}})
	return rootZone
}

func buildNLZone(authAddrs []netsim.Addr) *zone.Zone {
	nlZone := zone.New("nl.")
	nlZone.MustAdd(dnswire.RR{Name: "nl.", TTL: 3600, Data: dnswire.SOA{
		MName: "ns1.dns.nl.", RName: "hostmaster.dns.nl.",
		Serial: 2018050100, Refresh: 3600, Retry: 600, Expire: 2419200, Minimum: 3600,
	}})
	nlZone.MustAdd(dnswire.RR{Name: "nl.", TTL: 3600, Data: dnswire.NS{Host: "ns1.dns.nl."}})
	nlZone.MustAdd(dnswire.RR{Name: "ns1.dns.nl.", TTL: 3600,
		Data: dnswire.A{Addr: dnswire.MustAddr(TLDAddr)}})
	// Delegation of the test domain, glue with the paper's 3600 s
	// referral TTL (Appendix A).
	for i, addr := range authAddrs {
		host := "ns" + itoa(i+1) + "." + Domain
		nlZone.MustAdd(dnswire.RR{Name: Domain, TTL: 3600, Data: dnswire.NS{Host: host}})
		nlZone.MustAdd(dnswire.RR{Name: host, TTL: 3600,
			Data: dnswire.A{Addr: dnswire.MustAddr(string(addr))}})
	}
	return nlZone
}

// authZoneKey identifies a cachetest.nl zone shape for template reuse.
type authZoneKey struct {
	ttl, negTTL   uint32
	probes, auths int
}

// authZoneTemplates memoizes pristine cachetest.nl zones by shape. A
// testbed's zone is mutated over a run (serial bumps, AAAA rotations, the
// glue study's Replace calls), so each testbed gets its own Clone of the
// shared template — cloning copies prebuilt maps instead of re-validating
// and re-parsing every record, which matters when shards build thousands
// of same-shaped testbeds.
var authZoneTemplates struct {
	mu sync.Mutex
	m  map[authZoneKey]*zone.Zone
}

func authZoneTemplate(k authZoneKey, addrs []netsim.Addr) *zone.Zone {
	t := &authZoneTemplates
	t.mu.Lock()
	defer t.mu.Unlock()
	if z, ok := t.m[k]; ok {
		return z
	}
	z := zone.New(Domain)
	z.MustAdd(dnswire.RR{Name: Domain, TTL: k.ttl, Data: dnswire.SOA{
		MName: "ns1." + Domain, RName: "hostmaster." + Domain,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 864000, Minimum: k.negTTL,
	}})
	for i, addr := range addrs {
		host := "ns" + itoa(i+1) + "." + Domain
		z.MustAdd(dnswire.RR{Name: Domain, TTL: k.ttl, Data: dnswire.NS{Host: host}})
		z.MustAdd(dnswire.RR{Name: host, TTL: k.ttl,
			Data: dnswire.A{Addr: dnswire.MustAddr(string(addr))}})
	}
	for id := 1; id <= k.probes; id++ {
		z.MustAdd(dnswire.RR{
			Name: vantage.QName(uint16(id), Domain), TTL: k.ttl,
			Data: dnswire.AAAA{Addr: vantage.EncodeAAAA(1, uint16(id), k.ttl)},
		})
	}
	if t.m == nil {
		t.m = make(map[authZoneKey]*zone.Zone)
	}
	t.m[k] = z
	return z
}

// buildZones builds the per-testbed cachetest.nl zone, fetches the shared
// root/nl zones, and attaches the servers.
func (tb *Testbed) buildZones() {
	rootZone, nlZone := hierarchyZones(tb.AuthAddrs)
	if len(tb.Cfg.ExtraNL) > 0 {
		nlZone = nlZone.Clone()
		for _, rr := range tb.Cfg.ExtraNL {
			nlZone.MustAdd(rr)
		}
	}

	tb.AuthZone = authZoneTemplate(authZoneKey{
		ttl: tb.Cfg.TTL, negTTL: tb.Cfg.NegTTL,
		probes: tb.Cfg.Probes, auths: len(tb.AuthAddrs),
	}, tb.AuthAddrs).Clone()
	tb.serial0 = 1

	// One slab for the whole hierarchy's servers; tb.Auths views into it.
	servers := make([]authoritative.Server, 2+len(tb.AuthAddrs))
	rootSrv := &servers[0]
	rootSrv.Init(rootZone)
	rootSrv.Attach(tb.Net, RootAddr)
	tldSrv := &servers[1]
	tldSrv.Init(nlZone)
	tldSrv.Attach(tb.Net, TLDAddr)
	tb.Auths = make([]*authoritative.Server, 0, len(tb.AuthAddrs))
	for i, addr := range tb.AuthAddrs {
		srv := &servers[2+i]
		srv.Init(tb.AuthZone)
		srv.Attach(tb.Net, addr)
		tb.Auths = append(tb.Auths, srv)
	}
}

// authLogChunk is the AuthLog growth step, in events (12 KiB a chunk).
const authLogChunk = 512

// internTable numbers the values it is given in order of first sighting.
type internTable[K comparable] struct {
	vals []K
	idx  map[K]uint32
}

func (t *internTable[K]) intern(v K) uint32 {
	i, ok := t.idx[v]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[K]uint32)
		}
		i = uint32(len(t.vals))
		t.idx[v] = i
		t.vals = append(t.vals, v)
	}
	return i
}

// AuthSrc and AuthQName resolve a logged query's source address and
// canonical query name.
func (tb *Testbed) AuthSrc(ev AuthEvent) netsim.Addr { return tb.authSrcs.vals[ev.Src] }
func (tb *Testbed) AuthQName(ev AuthEvent) string    { return tb.authNames.vals[ev.QName] }

// installTap records every query arriving at a cachetest.nl authoritative,
// including ones the emulated DDoS drops.
func (tb *Testbed) installTap() {
	authIdx := make(map[netsim.Addr]uint8, len(tb.AuthAddrs))
	for i, a := range tb.AuthAddrs {
		authIdx[a] = uint8(i)
	}
	// The tap decodes into one scratch message: the simulator delivers
	// packets on a single goroutine and the tap retains nothing.
	var tapMsg dnswire.Message
	tb.Net.AddTap(func(ev netsim.Event) {
		dst, isAuth := authIdx[ev.Dst]
		if !isAuth {
			return
		}
		m := &tapMsg
		if err := dnswire.UnpackInto(m, ev.Payload); err != nil || m.Response || len(m.Questions) != 1 {
			return
		}
		tb.tapArrivals.Inc()
		if ev.Dropped {
			tb.tapDropped.Inc()
		} else {
			tb.tapDelivered.Inc()
		}
		if !tb.Cfg.KeepAuthLog {
			return
		}
		last := len(tb.AuthLog) - 1
		if last < 0 || len(tb.AuthLog[last]) == authLogChunk {
			tb.AuthLog = append(tb.AuthLog, make([]AuthEvent, 0, authLogChunk))
			last++
		}
		tb.AuthLog[last] = append(tb.AuthLog[last], AuthEvent{
			At:      ev.Time.Sub(tb.Start),
			Src:     tb.authSrcs.intern(ev.Src),
			QName:   tb.authNames.intern(dnswire.CanonicalName(m.Questions[0].Name)),
			QType:   m.Questions[0].Type,
			Dst:     dst,
			Dropped: ev.Dropped,
		})
	})
}

// CollectMetrics folds every component's counters into one registry:
// resolver and cache totals across the population, the cachetest.nl
// authoritatives, the network, the event loop, the probe fleet, and the
// testbed's own pre-drop tap. Scopes and metric names are stable, so two
// runs with the same seed produce byte-identical report JSON regardless
// of worker count.
func (tb *Testbed) CollectMetrics() *metrics.Registry {
	reg := metrics.NewRegistry()
	rs, cs := reg.Scope("resolver"), reg.Scope("cache")
	for _, l := range tb.Pop.Resolvers {
		r := l.Resolver()
		if r == nil {
			continue // never materialized: all counters are zero
		}
		r.CollectMetrics(rs)
		r.Cache().CollectMetrics(cs)
	}
	for _, r := range tb.advResolvers {
		r.CollectMetrics(rs)
		r.Cache().CollectMetrics(cs)
	}
	if tb.advCollect != nil {
		tb.advCollect(reg.Scope("adversary"))
	}
	as := reg.Scope("authoritative")
	for _, a := range tb.Auths {
		a.CollectMetrics(as)
	}
	tb.Net.CollectMetrics(reg.Scope("netsim"))

	scheduled, fired, stopped := tb.Clk.Counters()
	ck := reg.Scope("clock")
	ck.Add("events_scheduled", scheduled)
	ck.Add("events_fired", fired)
	ck.Add("timers_stopped", stopped)

	tb.Fleet.CollectMetrics(reg.Scope("vantage"))

	ts := reg.Scope("testbed")
	ts.Add("auth_arrivals", tb.tapArrivals.Value())
	ts.Add("auth_dropped", tb.tapDropped.Value())
	ts.Add("auth_delivered", tb.tapDelivered.Value())
	return reg
}

// ScheduleRotations arms the 10-minute zone rotations for the run length:
// each rotation bumps the serial and re-encodes every probe's AAAA record
// (§3.2).
func (tb *Testbed) ScheduleRotations(total time.Duration) {
	for at := RotationInterval; at <= total; at += RotationInterval {
		at := at
		tb.Clk.AfterFunc(at, func() { tb.rotate() })
	}
}

func (tb *Testbed) rotate() {
	serial := tb.CurrentSerial()
	for _, p := range tb.Pop.Probes {
		if err := tb.AuthZone.Replace(p.QName(), dnswire.TypeAAAA, tb.Cfg.TTL,
			dnswire.AAAA{Addr: vantage.EncodeAAAA(serial, p.ID, tb.Cfg.TTL)}); err != nil {
			panic(err)
		}
	}
	tb.AuthZone.BumpSerial()
}

// CurrentSerial returns the serial the zone serves at the current virtual
// time.
func (tb *Testbed) CurrentSerial() uint16 {
	return tb.SerialAt(tb.Clk.Now())
}

// SerialAt returns the serial the zone served at t. Rotations are exact,
// so this is a pure function of time.
func (tb *Testbed) SerialAt(t time.Time) uint16 {
	if t.Before(tb.Start) {
		return tb.serial0
	}
	return tb.serial0 + uint16(t.Sub(tb.Start)/RotationInterval)
}
