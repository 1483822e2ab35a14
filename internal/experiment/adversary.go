package experiment

// The adversarial scenario family: three attacks from the DDoS
// literature run against the same simulated ecosystem the defensive
// experiments use, so the defenses the paper measures (caching,
// serve-stale, retries) can be weighed against the offense side.
//
//   - NXNS (Afek et al. 2020): a malicious authoritative answers every
//     query with a wide glueless referral into the victim's domain,
//     turning one client query into `width` NS-address fetches at the
//     victim's authoritatives. The mitigation axis is
//     recursive.Config.MaxFetch — max-fetch(k).
//
//   - Cache poisoning: an off-path spoofer races the legitimate answer
//     with forged responses sweeping a query-ID window. The defense
//     axes are ID entropy (recursive.Config.RandomIDs) and bailiwick
//     checking (recursive.Config.NoBailiwick disables it).
//
//   - Reflection/amplification: spoofed-source queries bounced off the
//     authoritatives flood a victim with larger responses; the report
//     is the victim-side amplification factor per query shape.
//
// Each scenario flows through the sharded cell engine: cells run
// independent testbeds, absorb into integer accumulators, and merge in
// cell-index order — reports are byte-identical at any Shards value.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/stub"
	"repro/internal/trace"
	"repro/internal/vantage"
)

// advAddr maps a cell-local probe ID onto a unique address in one of
// the adversary experiments' private /16s (base.pid-high.pid-low).
func advAddr(base string, pid int) netsim.Addr {
	return netsim.Addr(base + "." + itoa(pid>>8) + "." + itoa(pid&0xff))
}

// ---- NXNS ----

// NXNSSpec shapes the NXNS amplification experiment: each probe issues
// one query into an attacker zone whose referral width cycles through
// nxnsWidths, and MaxFetch is the resolver-side mitigation cap (0 = off).
type NXNSSpec struct {
	// MaxFetch is recursive.Config.MaxFetch: at most k NS-address
	// fetches per glueless delegation. 0 disables the mitigation.
	MaxFetch int
}

// nxnsWidths is the delegation-width axis; probe i draws
// nxnsWidths[(i-1) % len(nxnsWidths)]. The widest is bounded by the
// resolver work budget (40), which itself caps the fan-out.
var nxnsWidths = [...]int{4, 8, 12, 20}

// NXNSRow is one delegation-width bucket of the NXNS report.
type NXNSRow struct {
	Width int
	// Queries is the number of client queries issued at this width;
	// Answered and ServFail split their outcomes.
	Queries  int64
	Answered int64
	ServFail int64
	// VictimQueries counts queries arriving at the victim's
	// authoritatives for fabricated NXNS targets triggered by this
	// width's probes.
	VictimQueries int64
}

// Amplification is the victim-side query amplification factor: victim
// queries forced per client query.
func (r NXNSRow) Amplification() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.VictimQueries) / float64(r.Queries)
}

// NXNSResult is the NXNS scenario outcome: amplification factor vs.
// delegation width.
type NXNSResult struct {
	MaxFetch int
	Rows     []NXNSRow
}

// nxnsZone names the attacker zone serving width w.
func nxnsZone(w int) string { return "w" + itoa(w) + ".evil.nl." }

// nxnsAuthAddr is the malicious authoritative address for widths[i].
func nxnsAuthAddr(i int) netsim.Addr {
	return netsim.Addr("203.0.113." + itoa(10+i))
}

// nxnsExtraNL builds the nl. delegations (with glue) handing each
// attacker zone to its malicious authoritative.
func nxnsExtraNL() []dnswire.RR {
	rrs := make([]dnswire.RR, 0, 2*len(nxnsWidths))
	for i, w := range nxnsWidths {
		z := nxnsZone(w)
		host := "ns." + z
		rrs = append(rrs,
			dnswire.RR{Name: z, TTL: 3600, Data: dnswire.NS{Host: host}},
			dnswire.RR{Name: host, TTL: 3600,
				Data: dnswire.A{Addr: dnswire.MustAddr(string(nxnsAuthAddr(i)))}})
	}
	return rrs
}

// runNXNSTestbed runs one cell of the NXNS experiment: a testbed whose
// nl. zone delegates one attacker zone per width, plus one dedicated
// iterative resolver per probe (fresh caches keep each probe's
// amplification measurement clean).
func runNXNSTestbed(spec NXNSSpec, base TestbedConfig) (*NXNSResult, *Testbed) {
	probes, seed := base.Probes, base.Seed
	base.ExtraNL = nxnsExtraNL()
	tb := NewTestbed(base)

	auths := make([]*adversary.NXNSAuth, len(nxnsWidths))
	for i, w := range nxnsWidths {
		a := adversary.NewNXNSAuth(adversary.NXNSConfig{
			Zone: nxnsZone(w), Width: w, VictimDomain: Domain,
		})
		a.Attach(tb.Net, nxnsAuthAddr(i))
		auths[i] = a
	}

	rows := newNXNSRows()

	// Victim-side tap: count queries for fabricated NXNS targets at the
	// cachetest.nl authoritatives and attribute them — the triggering
	// query's first label is the probe ID, and the probe ID fixes the
	// width bucket.
	isVictim := make(map[netsim.Addr]bool, len(tb.AuthAddrs))
	for _, a := range tb.AuthAddrs {
		isVictim[a] = true
	}
	tb.Net.AddMsgTap(func(ev netsim.Event) {
		if !isVictim[ev.Dst] {
			return
		}
		m := ev.Msg
		if m.Response || len(m.Questions) != 1 {
			return
		}
		qlabel, ok := adversary.ParseNXNSHost(dnswire.CanonicalName(m.Questions[0].Name))
		if !ok {
			return
		}
		pid, err := strconv.Atoi(qlabel)
		if err != nil || pid < 1 || pid > probes {
			return
		}
		rows[(pid-1)%len(nxnsWidths)].VictimQueries++
	})

	cfg := profile("default")
	cfg.RootHints, cfg.MaxFetch = tb.rootHints(), spec.MaxFetch
	resolvers := make([]*recursive.Resolver, 0, probes)
	for pid := 1; pid <= probes; pid++ {
		wi := (pid - 1) % len(nxnsWidths)
		r := recursive.New(tb.Clk, &cfg, mixSeed(seed, pid))
		rAddr := advAddr("10.7", pid)
		r.Attach(tb.Net, rAddr)
		resolvers = append(resolvers, r)

		c := stub.New(tb.Clk, stub.Config{Timeout: 15 * time.Second})
		c.Attach(tb.Net, advAddr("10.6", pid))

		qname := itoa(pid) + "." + nxnsZone(nxnsWidths[wi])
		row := &rows[wi]
		at := time.Duration(pid-1) * 5 * time.Millisecond
		clock.AfterFunc(tb.Clk, at, func() {
			row.Queries++
			c.Query(rAddr, qname, dnswire.TypeAAAA, func(res stub.Result) {
				switch {
				case res.Err != nil:
				case res.Msg.RCode == dnswire.RCodeServFail:
					row.ServFail++
				default:
					row.Answered++
				}
			})
		})
	}
	tb.Clk.Run()

	return &NXNSResult{MaxFetch: spec.MaxFetch, Rows: rows},
		advCollect(tb, resolvers, func(s metrics.Scope) {
			for _, a := range auths {
				a.CollectMetrics(s)
			}
		})
}

// advCollect is a shared post-run step: it leaves tb with its metrics
// untouched but folds the dedicated resolvers and adversary actors into
// the registry the caller will snapshot. It returns tb for convenience.
func advCollect(tb *Testbed, resolvers []*recursive.Resolver, adversaries func(metrics.Scope)) *Testbed {
	tb.advResolvers = resolvers
	tb.advCollect = adversaries
	return tb
}

// newNXNSRows builds the empty row set, one row per width.
func newNXNSRows() []NXNSRow {
	rows := make([]NXNSRow, len(nxnsWidths))
	for i, w := range nxnsWidths {
		rows[i].Width = w
	}
	return rows
}

// absorb adds one cell's rows (integer sums, aligned by width index)
// into the run total.
func (r *NXNSResult) absorb(cell *NXNSResult) {
	for i, row := range cell.Rows {
		r.Rows[i].Queries += row.Queries
		r.Rows[i].Answered += row.Answered
		r.Rows[i].ServFail += row.ServFail
		r.Rows[i].VictimQueries += row.VictimQueries
	}
}

// nxnsInvariants checks tap conservation plus the NXNS-specific laws:
// every client query earns at least one referral and at least one
// victim query, and the victim load never exceeds the per-query width
// cap (min(width, k) with max-fetch(k) armed).
func nxnsInvariants(spec NXNSSpec, res *NXNSResult, snap metrics.Snapshot) []metrics.Invariant {
	var queries, victim, cap64 int64
	for _, row := range res.Rows {
		queries += row.Queries
		victim += row.VictimQueries
		w := int64(row.Width)
		if k := int64(spec.MaxFetch); k > 0 && k < w {
			w = k
		}
		cap64 += w * row.Queries
	}
	adv := snap.Scope("adversary")
	invs := tapInvariants(snap, false)
	return append(invs,
		metrics.AtLeastInt("nxns_referrals_cover_queries",
			adv.Counter("nxns_referrals"), queries, "referrals", "client queries"),
		metrics.AtLeastInt("nxns_victim_fanout",
			victim, queries, "victim queries", "client queries"),
		metrics.AtLeastInt("nxns_fanout_capped",
			cap64, victim, "min(width,k) cap", "victim queries"),
	)
}

type nxnsScenario struct{ spec NXNSSpec }

// NXNSScenario wraps an NXNS amplification spec as a Scenario.
func NXNSScenario(spec NXNSSpec) Scenario {
	return nxnsScenario{spec: spec}
}

// Spec exposes the wrapped spec for golden tests.
func (s nxnsScenario) Spec() NXNSSpec { return s.spec }

func (s nxnsScenario) Name() string {
	if s.spec.MaxFetch > 0 {
		return "nxns-k" + itoa(s.spec.MaxFetch)
	}
	return "nxns"
}

func (s nxnsScenario) labels() map[string]string {
	widths := ""
	for i, w := range nxnsWidths {
		if i > 0 {
			widths += "x"
		}
		widths += itoa(w)
	}
	return map[string]string{"widths": widths, "max_fetch": itoa(s.spec.MaxFetch)}
}

func (s nxnsScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	total := &NXNSResult{MaxFetch: s.spec.MaxFetch, Rows: newNXNSRows()}
	return runCells(ctx, s.Name(), cfg, cellRun[*NXNSResult]{
		cell: func(base TestbedConfig) (*NXNSResult, *Testbed) {
			return runNXNSTestbed(s.spec, base)
		},
		fold: total.absorb,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.NXNS = total
			return s.labels(), nxnsInvariants(s.spec, total, snap)
		},
	})
}

// ---- Poisoning ----

// PoisonSpec shapes the off-path poisoning experiment: per probe, one
// dedicated resolver resolves its own record while a spoofer races the
// legitimate answer with forged responses.
type PoisonSpec struct {
	// RandomIDs arms full 16-bit query-ID entropy on the victim
	// resolvers (off = sequential IDs, the attacker's dream).
	RandomIDs bool
	// NoBailiwick disables the victim resolvers' bailiwick check, so
	// out-of-zone records smuggled in the forgery get cached.
	NoBailiwick bool
}

// The spray every probe's spoofer fires (see adversary.SpoofConfig):
// poisonWaves waves poisonWaveEvery apart, each guessing poisonIDWindow
// query IDs. The source port is always guessed right (PortGuess 1).
const (
	poisonIDWindow  = 16
	poisonWaves     = 24
	poisonWaveEvery = 2 * time.Millisecond
)

// poisonAttackerAAAA is the address the forged answers point the victim
// name at — its presence marks a successful hijack.
var poisonAttackerAAAA = dnswire.MustAddr("2001:db8::bad")

// poisonOOBName is the out-of-bailiwick record smuggled in the
// forgery's additional section (the Kaminsky-style payload); it caching
// anywhere means the bailiwick check failed or was disabled.
const poisonOOBName = "ns.attacker.example."

// PoisonResult is the poisoning scenario outcome for one defense combo.
type PoisonResult struct {
	RandomIDs   bool
	NoBailiwick bool

	// Attempts is one per probe. Hijacked counts stubs that received
	// the attacker's record; CachePoisoned counts resolver caches left
	// holding it; OOBWrites counts caches holding the out-of-bailiwick
	// smuggled record.
	Attempts      int64
	Hijacked      int64
	CachePoisoned int64
	OOBWrites     int64
}

// SuccessRate is the fraction of attempts that hijacked the answer.
func (r *PoisonResult) SuccessRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Hijacked) / float64(r.Attempts)
}

// runPoisonTestbed runs one cell: per probe, a dedicated resolver, a
// stub triggering the resolution, and a spoofer racing it.
func runPoisonTestbed(spec PoisonSpec, base TestbedConfig) (*PoisonResult, *Testbed) {
	probes, seed := base.Probes, base.Seed
	tb := NewTestbed(base)

	res := &PoisonResult{RandomIDs: spec.RandomIDs, NoBailiwick: spec.NoBailiwick}
	resolvers := make([]*recursive.Resolver, 0, probes)
	spoofers := make([]*adversary.Spoofer, 0, probes)
	qnames := make([]string, 0, probes)

	cfg := profile("default")
	cfg.RootHints, cfg.RandomIDs, cfg.NoBailiwick = tb.rootHints(), spec.RandomIDs, spec.NoBailiwick
	for pid := 1; pid <= probes; pid++ {
		r := recursive.New(tb.Clk, &cfg, mixSeed(seed, pid))
		rAddr := advAddr("10.7", pid)
		r.Attach(tb.Net, rAddr)
		resolvers = append(resolvers, r)

		c := stub.New(tb.Clk, stub.Config{Timeout: 15 * time.Second})
		c.Attach(tb.Net, advAddr("10.6", pid))

		sp := adversary.NewSpoofer(tb.Clk, tb.Net, adversary.SpoofConfig{
			Target: rAddr, Source: tb.AuthAddrs[0],
			IDFirst: 1, IDWindow: poisonIDWindow,
			Waves: poisonWaves, WaveEvery: poisonWaveEvery,
			PortGuess: 1,
			Seed:      mixSeed(seed, pid) + 1,
		})
		spoofers = append(spoofers, sp)

		qname := vantage.QName(uint16(pid), Domain)
		qnames = append(qnames, qname)
		payload := adversary.ForgedPayload{
			AA: true,
			Answers: []dnswire.RR{{Name: qname, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.AAAA{Addr: poisonAttackerAAAA}}},
			Authorities: []dnswire.RR{{Name: Domain, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.NS{Host: poisonOOBName}}},
			Additionals: []dnswire.RR{{Name: poisonOOBName, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.A{Addr: dnswire.MustAddr("203.0.113.99")}}},
		}

		pid := pid
		at := time.Duration(pid-1) * 10 * time.Millisecond
		clock.AfterFunc(tb.Clk, at, func() {
			res.Attempts++
			sp.Spray(qname, dnswire.TypeAAAA, payload, 0)
			c.Query(rAddr, qname, dnswire.TypeAAAA, func(sr stub.Result) {
				if sr.Err != nil || sr.Msg == nil {
					return
				}
				for _, rr := range sr.Msg.Answers {
					if a, ok := rr.Data.(dnswire.AAAA); ok && a.Addr == poisonAttackerAAAA {
						res.Hijacked++
						if tr := tb.Net.Trace(); tr != nil {
							tr.Force(trace.Event{Type: trace.EvSpoofHit,
								Probe: uint16(pid), Name: qname,
								Src: string(tb.AuthAddrs[0]), Dst: string(rAddr)})
						}
						break
					}
				}
			})
		})
	}
	// Cache sweep: what did the race leave behind? The sweep runs inside
	// the simulation, shortly after the last attempt's spray settles —
	// the population models resolver restarts up to 12 virtual hours
	// out, so sweeping after Run() drains would find the forged TTLs
	// (3600 s) long expired.
	sweepAt := time.Duration(probes)*10*time.Millisecond + 10*time.Second
	clock.AfterFunc(tb.Clk, sweepAt, func() {
		for i, r := range resolvers {
			if v := r.Cache().Peek(cache.Key{Name: qnames[i], Type: dnswire.TypeAAAA}, 0); v.Hit {
				for _, rr := range v.Records {
					if a, ok := rr.Data.(dnswire.AAAA); ok && a.Addr == poisonAttackerAAAA {
						res.CachePoisoned++
						break
					}
				}
			}
			if v := r.Cache().Peek(cache.Key{Name: poisonOOBName, Type: dnswire.TypeA}, 0); v.Hit {
				res.OOBWrites++
			}
		}
	})
	tb.Clk.Run()

	return res, advCollect(tb, resolvers, func(s metrics.Scope) {
		for _, sp := range spoofers {
			sp.CollectMetrics(s)
		}
	})
}

// absorb adds one cell's integer tallies into the run total.
func (r *PoisonResult) absorb(cell *PoisonResult) {
	r.Attempts += cell.Attempts
	r.Hijacked += cell.Hijacked
	r.CachePoisoned += cell.CachePoisoned
	r.OOBWrites += cell.OOBWrites
}

// poisonInvariants checks the spray's packet conservation and, with the
// full defense stack on, that poisoning stayed (near) impossible.
func poisonInvariants(spec PoisonSpec, res *PoisonResult, snap metrics.Snapshot) []metrics.Invariant {
	adv := snap.Scope("adversary")
	draws := res.Attempts * poisonWaves * poisonIDWindow
	invs := []metrics.Invariant{
		metrics.EqualInt("spoof_draws_conserved",
			adv.Counter("spoof_sent")+adv.Counter("spoof_wrong_port"), draws,
			"sent+wrong-port", "attempts*waves*window"),
	}
	if !spec.NoBailiwick {
		invs = append(invs, metrics.EqualInt("no_oob_cache_writes",
			res.OOBWrites, 0, "out-of-bailiwick writes", "zero"))
	}
	if spec.RandomIDs {
		// Full ID entropy: a 16-ID window guesses one inflight ID with
		// p ≈ 3*window/65536 per wave — allow at most 5% before calling
		// the defense broken.
		invs = append(invs, metrics.AtLeastInt("poison_blocked_by_entropy",
			res.Attempts/20, res.Hijacked, "5% of attempts", "hijacks"))
	}
	return invs
}

type poisonScenario struct{ spec PoisonSpec }

// PoisonScenario wraps one poisoning defense combo as a Scenario.
func PoisonScenario(spec PoisonSpec) Scenario {
	return poisonScenario{spec: spec}
}

// Spec exposes the wrapped spec for golden tests.
func (s poisonScenario) Spec() PoisonSpec { return s.spec }

func (s poisonScenario) Name() string {
	ids, bw := "seqid", "bw"
	if s.spec.RandomIDs {
		ids = "randid"
	}
	if s.spec.NoBailiwick {
		bw = "nobw"
	}
	return "poison-" + ids + "-" + bw
}

func (s poisonScenario) labels() map[string]string {
	return map[string]string{
		"random_ids":   strconv.FormatBool(s.spec.RandomIDs),
		"no_bailiwick": strconv.FormatBool(s.spec.NoBailiwick),
		"id_window":    itoa(poisonIDWindow),
		"waves":        itoa(poisonWaves),
	}
}

func (s poisonScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	total := &PoisonResult{RandomIDs: s.spec.RandomIDs, NoBailiwick: s.spec.NoBailiwick}
	return runCells(ctx, s.Name(), cfg, cellRun[*PoisonResult]{
		cell: func(base TestbedConfig) (*PoisonResult, *Testbed) {
			return runPoisonTestbed(s.spec, base)
		},
		fold: total.absorb,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Poison = total
			return s.labels(), poisonInvariants(s.spec, total, snap)
		},
	})
}

// ---- Reflection ----

// The reflection/amplification experiment sends, per probe, one
// spoofed-source query per shape, reflectEvery apart (the victim-side qps
// figure divides by it); the EDNS shapes advertise reflectEDNSSize.
const (
	reflectEvery    = 2 * time.Millisecond
	reflectEDNSSize = 4096
)

// ReflectRow is one query shape of the reflection report.
type ReflectRow struct {
	// Shape names the query shape ("AAAA", "NS+EDNS", "TXT+EDNS").
	Shape string
	// Queries and RequestBytes are the attacker's spend; Packets and
	// ResponseBytes are what landed on the victim.
	Queries       int64
	RequestBytes  int64
	Packets       int64
	ResponseBytes int64
}

// Amplification is the byte amplification factor of this shape.
func (r ReflectRow) Amplification() float64 {
	if r.RequestBytes == 0 {
		return 0
	}
	return float64(r.ResponseBytes) / float64(r.RequestBytes)
}

// ReflectResult is the reflection scenario outcome.
type ReflectResult struct {
	Rows []ReflectRow
	// VictimPackets/VictimBytes total the flood across shapes;
	// VictimQPS is the victim-side packet rate over the attack window.
	VictimPackets int64
	VictimBytes   int64
	VictimQPS     float64
}

// reflectTXTName is the fat TXT record the TXT shape queries; the
// record is added to each testbed's (per-testbed, mutable) zone.
const reflectTXTName = "txt." + Domain

// reflectVictimAddr is the flood target for shape i (one address per
// shape keeps the byte attribution exact).
func reflectVictimAddr(i int) netsim.Addr {
	return netsim.Addr("198.51.100." + itoa(10+i))
}

// runReflectTestbed runs one cell of the reflection experiment.
func runReflectTestbed(base TestbedConfig) (*ReflectResult, *Testbed) {
	probes := base.Probes
	tb := NewTestbed(base)

	// A fat TXT record makes the worst shape worth amplifying, as open
	// resolvers' ANY/TXT responses do in the wild.
	big := make([]string, 4)
	for i := range big {
		b := make([]byte, 200)
		for j := range b {
			b[j] = 'x'
		}
		big[i] = string(b)
	}
	tb.AuthZone.MustAdd(dnswire.RR{Name: reflectTXTName, TTL: 3600,
		Data: dnswire.TXT{Strings: big}})

	shapes := []struct {
		label string
		qtype dnswire.Type
		edns  uint16
		qname func(pid int) string
	}{
		{"AAAA", dnswire.TypeAAAA, 0,
			func(pid int) string { return vantage.QName(uint16(pid), Domain) }},
		{"NS+EDNS", dnswire.TypeNS, reflectEDNSSize,
			func(int) string { return Domain }},
		{"TXT+EDNS", dnswire.TypeTXT, reflectEDNSSize,
			func(int) string { return reflectTXTName }},
	}

	sinks := make([]*adversary.VictimSink, len(shapes))
	refls := make([]*adversary.Reflector, len(shapes))
	for i, sh := range shapes {
		sinks[i] = adversary.NewVictimSink(tb.Net, reflectVictimAddr(i))
		refls[i] = adversary.NewReflector(tb.Clk, tb.Net, adversary.ReflectConfig{
			Victim:   reflectVictimAddr(i),
			Servers:  tb.AuthAddrs,
			EDNSSize: sh.edns,
		})
	}

	for pid := 1; pid <= probes; pid++ {
		at := time.Duration(pid-1) * reflectEvery
		for i, sh := range shapes {
			i, qname, qtype := i, sh.qname(pid), sh.qtype
			clock.AfterFunc(tb.Clk, at, func() { refls[i].Send(qname, qtype) })
		}
	}
	tb.Clk.Run()

	res := &ReflectResult{Rows: make([]ReflectRow, len(shapes))}
	for i, sh := range shapes {
		res.Rows[i] = ReflectRow{
			Shape:         sh.label,
			Queries:       refls[i].Sent(),
			RequestBytes:  refls[i].RequestBytes(),
			Packets:       sinks[i].Packets(),
			ResponseBytes: sinks[i].Bytes(),
		}
		res.VictimPackets += sinks[i].Packets()
		res.VictimBytes += sinks[i].Bytes()
	}

	return res, advCollect(tb, nil, func(s metrics.Scope) {
		for i := range shapes {
			refls[i].CollectMetrics(s)
			sinks[i].CollectMetrics(s)
		}
	})
}

// absorb adds one cell's rows (aligned by shape index) and flood totals
// into the run total.
func (r *ReflectResult) absorb(cell *ReflectResult) {
	if r.Rows == nil {
		r.Rows = make([]ReflectRow, len(cell.Rows))
		for j := range cell.Rows {
			r.Rows[j].Shape = cell.Rows[j].Shape
		}
	}
	for j, row := range cell.Rows {
		r.Rows[j].Queries += row.Queries
		r.Rows[j].RequestBytes += row.RequestBytes
		r.Rows[j].Packets += row.Packets
		r.Rows[j].ResponseBytes += row.ResponseBytes
	}
	r.VictimPackets += cell.VictimPackets
	r.VictimBytes += cell.VictimBytes
}

// reflectFinalize computes the rate figure from the exact-merged
// integers: the attack window is probes*reflectEvery per definition of
// the spray schedule, so the value is a pure function of config and
// totals.
func reflectFinalize(res *ReflectResult, probes int) *ReflectResult {
	window := time.Duration(probes) * reflectEvery
	if s := window.Seconds(); s > 0 {
		res.VictimQPS = float64(res.VictimPackets) / s
	}
	return res
}

// reflectInvariants checks the flood's conservation laws: every bounced
// query lands exactly one response on the victim (no loss window is
// armed), and responses at least repay the request bytes.
func reflectInvariants(res *ReflectResult, snap metrics.Snapshot) []metrics.Invariant {
	adv := snap.Scope("adversary")
	var reqBytes int64
	for _, row := range res.Rows {
		reqBytes += row.RequestBytes
	}
	invs := tapInvariants(snap, false)
	return append(invs,
		metrics.EqualInt("reflect_one_response_per_query",
			res.VictimPackets, adv.Counter("reflect_sent"),
			"victim packets", "reflected queries"),
		metrics.AtLeastInt("reflect_amplifies",
			res.VictimBytes, reqBytes, "victim bytes", "request bytes"),
	)
}

type reflectScenario struct{}

// ReflectScenario is the reflection/amplification measurement as a
// Scenario.
func ReflectScenario() Scenario { return reflectScenario{} }

func (reflectScenario) Name() string { return "reflect" }

func (reflectScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	total := &ReflectResult{}
	return runCells(ctx, "reflect", cfg, cellRun[*ReflectResult]{
		cell: runReflectTestbed,
		fold: total.absorb,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Reflect = reflectFinalize(total, cfg.Probes)
			return map[string]string{"edns_size": itoa(reflectEDNSSize)},
				reflectInvariants(out.Reflect, snap)
		},
	})
}

// ---- Rendering ----

// RenderNXNS prints the amplification-vs-width table of one NXNS run.
func RenderNXNS(r *NXNSResult) string {
	var sb strings.Builder
	k := "off"
	if r.MaxFetch > 0 {
		k = itoa(r.MaxFetch)
	}
	fmt.Fprintf(&sb, "%-18s %10s %10s %10s %10s\n",
		"max-fetch(k)="+k, "queries", "servfail", "victim q", "amp")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-18s %10d %10d %10d %10.2f\n",
			"width "+itoa(row.Width), row.Queries, row.ServFail,
			row.VictimQueries, row.Amplification())
	}
	return sb.String()
}

// RenderPoison prints the poison-success matrix, one column per combo.
func RenderPoison(results []*PoisonResult) string {
	var sb strings.Builder
	row := func(label string, get func(*PoisonResult) any) {
		fmt.Fprintf(&sb, "%-18s", label)
		for _, r := range results {
			fmt.Fprintf(&sb, " %10v", get(r))
		}
		sb.WriteByte('\n')
	}
	row("ID entropy", func(r *PoisonResult) any {
		if r.RandomIDs {
			return "16-bit"
		}
		return "seq"
	})
	row("bailiwick check", func(r *PoisonResult) any {
		if r.NoBailiwick {
			return "off"
		}
		return "on"
	})
	row("attempts", func(r *PoisonResult) any { return r.Attempts })
	row("hijacked", func(r *PoisonResult) any { return r.Hijacked })
	row("cache poisoned", func(r *PoisonResult) any { return r.CachePoisoned })
	row("oob writes", func(r *PoisonResult) any { return r.OOBWrites })
	row("success %", func(r *PoisonResult) any {
		return fmt.Sprintf("%.1f", 100*r.SuccessRate())
	})
	return sb.String()
}

// RenderReflect prints the per-shape amplification table.
func RenderReflect(r *ReflectResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %10s %10s %10s %10s\n",
		"shape", "queries", "req B", "victim B", "amp")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-18s %10d %10d %10d %10.2f\n",
			row.Shape, row.Queries, row.RequestBytes,
			row.ResponseBytes, row.Amplification())
	}
	fmt.Fprintf(&sb, "%-18s %10d packets, %.0f qps at the victim\n",
		"flood", r.VictimPackets, r.VictimQPS)
	return sb.String()
}
