// Package vantage emulates the paper's measurement platform: a fleet of
// RIPE-Atlas-like probes, each querying its recursive resolvers for a
// probe-unique AAAA record at a fixed pacing (§3.2). Every (probe,
// recursive) pair is one vantage point (VP). Answers encode
// (serial, probeID, ttl) in the AAAA RDATA so the classifier can tell
// cached data from fresh data.
package vantage

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/lazyrand"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stub"
)

// Prefix is the fixed 64-bit prefix of encoded answers
// (fd0f:3897:faf7:a375::/64), as in §3.2 of the paper.
var Prefix = [8]byte{0xfd, 0x0f, 0x38, 0x97, 0xfa, 0xf7, 0xa3, 0x75}

// EncodeAAAA packs (serial, probeID, ttl) into an answer address:
// prefix:serial:probeid:ttl-high:ttl-low. The TTL field is 32 bits so a
// day-long TTL (86400 s) fits, as in the paper's fifth experiment.
func EncodeAAAA(serial, probeID uint16, ttl uint32) netip.Addr {
	var b [16]byte
	copy(b[:8], Prefix[:])
	binary.BigEndian.PutUint16(b[8:], serial)
	binary.BigEndian.PutUint16(b[10:], probeID)
	binary.BigEndian.PutUint32(b[12:], ttl)
	return netip.AddrFrom16(b)
}

// DecodeAAAA unpacks an encoded answer address. ok is false when the
// address does not carry the experiment prefix.
func DecodeAAAA(addr netip.Addr) (serial, probeID uint16, ttl uint32, ok bool) {
	b := addr.As16()
	for i := range Prefix {
		if b[i] != Prefix[i] {
			return 0, 0, 0, false
		}
	}
	return binary.BigEndian.Uint16(b[8:]),
		binary.BigEndian.Uint16(b[10:]),
		binary.BigEndian.Uint32(b[12:]), true
}

// QName returns the probe-unique query name under domain, e.g.
// "1414.cachetest.nl.".
func QName(probeID uint16, domain string) string {
	return dnswire.CanonicalName(strconv.Itoa(int(probeID)) + "." + domain)
}

// Answer is one VP observation: the outcome of a single query from a probe
// to one of its recursives. A probe's log holds one per query sent, so the
// record stays at 32 bytes: the probe that owns the log is implied, the
// recursive is an index into its Recursives, the send time is Unix
// nanoseconds and the outcome one byte.
type Answer struct {
	// Sent is the send time in Unix nanoseconds (see SentAt).
	Sent int64
	RTT  time.Duration

	EncTTL    uint32 // TTL the zone configured, as encoded in the RDATA
	AnswerTTL uint32 // TTL the recursive returned on the record
	Round     uint16
	Serial    uint16
	// Rec indexes the queried recursive in the probe's Recursives.
	Rec     uint8
	RCode   dnswire.RCode
	Outcome Outcome
}

// Outcome is what became of a query; interpret sets exactly one.
type Outcome uint8

const (
	// Valid marks a reply that carried an AAAA record with the
	// experiment prefix and the right probe ID.
	Valid Outcome = iota + 1
	// Timeout marks the Atlas "no answer" outcome (5 s without reply).
	Timeout
	// Discard marks errored or non-answer replies (SERVFAIL, REFUSED,
	// referrals), the paper's "answers (disc.)" row in Table 1.
	Discard
)

// Ok reports whether the answer is a usable measurement.
func (a Answer) Ok() bool { return a.Outcome == Valid }

// SentAt is the query's send time.
func (a Answer) SentAt() time.Time { return time.Unix(0, a.Sent).UTC() }

// Probe is one emulated Atlas probe: a stub resolver with a set of local
// recursives.
type Probe struct {
	ID         uint16
	Addr       netsim.Addr
	Recursives []netsim.Addr
	Domain     string

	qname    string // QName(ID, Domain), computed once
	client   *stub.Client
	clk      clock.Clock
	answers  []Answer
	free     *vpQuery // recycled query contexts
	sent     metrics.Counter
	timeouts metrics.Counter
	// Dead marks a probe whose queries never get answered (the ~4.5%
	// discarded probes of Table 1 have unusable local resolvers).
	Dead bool
}

// MaxRecursives is the most recursives a probe queries: Answer.Rec is a
// uint8.
const MaxRecursives = 1 << 8

// NewProbe creates and attaches a probe at addr.
func NewProbe(clk clock.Clock, net *netsim.Network, id uint16, addr netsim.Addr,
	recursives []netsim.Addr, domain string) *Probe {

	if len(recursives) > MaxRecursives {
		panic("vantage: NewProbe: " + strconv.Itoa(len(recursives)) + " recursives exceed MaxRecursives")
	}
	p := &Probe{
		ID: id, Addr: addr, Recursives: recursives,
		Domain: domain,
		qname:  QName(id, domain),
		client: stub.New(clk, stub.Config{}),
		clk:    clk,
	}
	p.client.Attach(net, addr)
	return p
}

// QueryRound sends this round's query to every local recursive (each is a
// separate VP measurement).
func (p *Probe) QueryRound(round int) {
	for i, rec := range p.Recursives {
		q := p.free
		if q == nil {
			q = &vpQuery{p: p}
		} else {
			p.free = q.next
		}
		q.round, q.rec, q.sent = uint16(round), uint8(i), p.clk.Now().UnixNano()
		p.sent.Inc()
		p.client.Do(rec, p.qname, dnswire.TypeAAAA, q)
	}
}

// vpQuery is the context of one in-flight VP query and its stub.Handler.
// The stub reports each query exactly once, and with that the context
// goes back to its probe's free list.
type vpQuery struct {
	p     *Probe
	round uint16
	rec   uint8 // index into p.Recursives
	sent  int64 // Unix nanoseconds
	next  *vpQuery
}

// Done implements stub.Handler: it logs the VP's observation.
func (q *vpQuery) Done(res stub.Result) {
	p := q.p
	p.answers = append(p.answers, p.interpret(q.round, q.rec, q.sent, res))
	q.next, p.free = p.free, q
}

// interpret converts a stub result into an Answer.
func (p *Probe) interpret(round uint16, rec uint8, sent int64, res stub.Result) Answer {
	a := Answer{Rec: rec, Round: round, Sent: sent, RTT: res.RTT}
	if res.Err != nil {
		a.Outcome = Timeout
		p.timeouts.Inc()
		return a
	}
	a.RCode = res.Msg.RCode
	if res.Msg.RCode != dnswire.RCodeNoError {
		a.Outcome = Discard
		return a
	}
	for _, rr := range res.Msg.Answers {
		aaaa, ok := rr.Data.(dnswire.AAAA)
		if !ok {
			continue
		}
		serial, probeID, encTTL, ok := DecodeAAAA(aaaa.Addr)
		if !ok || probeID != p.ID {
			continue
		}
		a.Outcome = Valid
		a.Serial = serial
		a.EncTTL = encTTL
		a.AnswerTTL = rr.TTL
		return a
	}
	// NOERROR without a usable AAAA (e.g. a referral leaked through).
	a.Outcome = Discard
	return a
}

// Answers returns the probe's observation log.
func (p *Probe) Answers() []Answer { return p.answers }

// QName returns the probe's query name, QName(p.ID, p.Domain).
func (p *Probe) QName() string { return p.qname }

// Fleet is a set of probes sharing a probing schedule.
type Fleet struct {
	Probes []*Probe
	clk    clock.Clock
	rng    *rand.Rand
}

// NewFleet groups probes for scheduling. seed drives the per-round smear.
func NewFleet(clk clock.Clock, probes []*Probe, seed int64) *Fleet {
	return &Fleet{Probes: probes, clk: clk, rng: lazyrand.New(seed)}
}

// MaxRounds is the most rounds a fleet schedules: Answer.Round is a uint16.
const MaxRounds = 1 << 16

// Schedule arms timers for rounds of queries: round r fires at
// start + r*interval + smear, where smear is uniform in [0, smear) per
// probe per round (Atlas spreads queries over ~5 minutes, §5.2). Every
// round's instant is drawn here, probe-major, but only a probe's next
// round sits on the clock: each round arms the one after it, so the
// pending timers scale with the probes, not with probes × rounds. Each
// live probe's log is sized for the whole schedule up front. Callers
// bound rounds by MaxRounds first.
func (f *Fleet) Schedule(start time.Time, interval, smear time.Duration, rounds int) {
	if rounds > MaxRounds {
		panic("vantage: Schedule: " + strconv.Itoa(rounds) + " rounds exceed MaxRounds")
	}
	if rounds <= 0 {
		return
	}
	// One flat slab of round instants (Unix ns) and one of per-probe
	// cursors the timers point at; neither grows, so the pointers stay good.
	at := make([]int64, 0, len(f.Probes)*rounds)
	runs := make([]probeRun, 0, len(f.Probes))
	for _, p := range f.Probes {
		if p.Dead {
			continue
		}
		p.answers = slices.Grow(p.answers, rounds*len(p.Recursives))
		first := len(at)
		for r := 0; r < rounds; r++ {
			t := start.Add(time.Duration(r) * interval)
			if smear > 0 {
				t = t.Add(time.Duration(f.rng.Int63n(int64(smear))))
			}
			at = append(at, t.UnixNano())
		}
		runs = append(runs, probeRun{p: p, at: at[first:]})
	}
	for i := range runs {
		runs[i].arm()
	}
}

// probeRun is one probe's place in its schedule: at holds its rounds'
// instants, round is the next to fire.
type probeRun struct {
	p     *Probe
	at    []int64
	round int
}

// arm puts the probe's next round on the clock.
func (pr *probeRun) arm() {
	d := time.Duration(pr.at[pr.round] - pr.p.clk.Now().UnixNano())
	pr.p.clk.AfterFuncRef(d, fireRound, pr)
}

// fireRound is the static timer callback armed by probeRun.arm. It arms
// the next round before querying, so that round is scheduled ahead of
// anything this one's queries schedule.
func fireRound(arg any) {
	pr := arg.(*probeRun)
	round := pr.round
	if pr.round++; pr.round < len(pr.at) {
		pr.arm()
	}
	pr.p.QueryRound(round)
}

// CollectMetrics folds the fleet's probing totals into s. A query counts
// as sent when its timer fires, answered when the callback records an
// Answer, so sent - answers_recorded is the number still unresolved when
// the run stopped.
func (f *Fleet) CollectMetrics(s metrics.Scope) {
	for _, p := range f.Probes {
		s.Add("queries_sent", p.sent.Value())
		s.Add("timeouts", p.timeouts.Value())
		s.Add("answers_recorded", int64(len(p.answers)))
	}
}

// VPAnswer is an answer with the vantage point that logged it.
type VPAnswer struct {
	VPKey
	Answer
}

// AllAnswers gathers every probe's log.
func (f *Fleet) AllAnswers() []VPAnswer {
	n := 0
	for _, p := range f.Probes {
		n += len(p.answers)
	}
	out := make([]VPAnswer, 0, n)
	for _, p := range f.Probes {
		for _, a := range p.answers {
			out = append(out, VPAnswer{VPKey{p.ID, p.Recursives[a.Rec]}, a})
		}
	}
	return out
}

// VPKey identifies a vantage point.
type VPKey struct {
	ProbeID   uint16
	Recursive netsim.Addr
}

// EachVP calls visit once per vantage point that recorded an answer, with
// the VP's probe, its recursive and its answers sorted by send time: the
// groups ByVP(AllAnswers()) makes, walked straight off each probe's own
// log. Probes are visited in fleet order and a probe's recursives in
// address order, which is (probe, recursive) key order for a fleet whose
// probes are in ID order (every fleet the population builder makes). The
// list is scratch, valid until visit returns.
func (f *Fleet) EachVP(visit func(p *Probe, rec netsim.Addr, answers []Answer)) {
	var recs []netsim.Addr
	var list []Answer
	for _, p := range f.Probes {
		recs = append(recs[:0], p.Recursives...)
		slices.Sort(recs)
		for i, rec := range recs {
			if i > 0 && rec == recs[i-1] {
				continue
			}
			list = list[:0]
			for _, a := range p.answers {
				if p.Recursives[a.Rec] == rec {
					list = append(list, a)
				}
			}
			if len(list) == 0 {
				continue
			}
			sortAnswers(list)
			visit(p, rec, list)
		}
	}
}

// ByVP groups answers per vantage point, each sorted by send time.
func ByVP(answers []VPAnswer) map[VPKey][]Answer {
	m := make(map[VPKey][]Answer)
	for _, a := range answers {
		m[a.VPKey] = append(m[a.VPKey], a.Answer)
	}
	for _, list := range m {
		sortAnswers(list)
	}
	return m
}

func sortAnswers(list []Answer) {
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j].Sent < list[j-1].Sent; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}
