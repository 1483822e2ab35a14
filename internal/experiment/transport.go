package experiment

// The transport scenario family: the DoTCP-fallback resiliency study.
// Each probe asks its own dedicated resolver for a TXT record too fat
// for small UDP budgets (~1.8 KB: over the 1232-octet flag-day default,
// under 4096), while a volumetric flood drops packets at the
// cachetest.nl authoritatives. The sweep crosses the advertised EDNS0
// buffer size with how much of the path can fall back to TCP on TC=1:
//
//   none — classic UDP-only path. Small buffers dead-end: the
//          authoritative truncates, the resolver can't use TC=1, and
//          the client sees SERVFAIL.
//   rec  — the resolver retries truncated upstream responses over TCP
//          (RFC 7766) but the stub cannot; big answers reach the
//          resolver and are then truncated on the client leg.
//   full — both legs fall back; every truncation is absorbed and the
//          answer arrives over TCP.
//
// The report is the answer rate per (buffer, fallback) population —
// the resiliency axis of Dikshit et al. (arXiv:2307.06131) — and the
// flood knob shows how the TCP plane's separate loss budget keeps
// fallback populations alive when UDP is being dropped.
//
// Like the adversary scenarios, transport flows through the sharded
// cell engine: integer accumulators merged in cell-index order make
// reports byte-identical at any Shards value.

import (
	"context"
	"strconv"
	"strings"
	"time"

	"fmt"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/recursive"
	"repro/internal/stub"
)

// FallbackMode says how much of the stub→resolver→authoritative path
// may retry a TC=1 response over the simulated TCP plane.
type FallbackMode int

const (
	// FallbackNone is the UDP-only path: TC=1 is terminal on both legs.
	FallbackNone FallbackMode = iota
	// FallbackResolver arms TCP fallback on the resolver's upstream leg
	// only; the stub still treats TC=1 as truncated.
	FallbackResolver
	// FallbackFull arms TCP fallback on both legs.
	FallbackFull
)

// String renders the mode as the report label.
func (m FallbackMode) String() string {
	switch m {
	case FallbackResolver:
		return "rec"
	case FallbackFull:
		return "full"
	}
	return "none"
}

// transportModes is the fallback axis, in report order.
var transportModes = [...]FallbackMode{FallbackNone, FallbackResolver, FallbackFull}

// transportBufs is the advertised EDNS0 buffer axis; 0 means no OPT at
// all (the classic 512-octet limit).
var transportBufs = [...]uint16{0, 1232, 4096}

// transportCombos is the row count: every buffer size crossed with every
// fallback mode. Probe i draws combo (i-1) % transportCombos.
const transportCombos = len(transportBufs) * len(transportModes)

// transportRow maps a cell-local probe ID onto its (buffer, fallback)
// combo.
func transportRow(pid int) int { return (pid - 1) % transportCombos }

// TransportSpec shapes the DoTCP-fallback experiment.
type TransportSpec struct {
	// Flood is the UDP inbound-loss probability armed at the
	// cachetest.nl authoritatives for the whole run (0 = no attack).
	Flood float64
}

// tcpLoss is the loss probability of the TCP plane at the same servers.
// The paper's volumetric floods are UDP reflection traffic, so
// established TCP flows degrade less: half the UDP flood.
func (s TransportSpec) tcpLoss() float64 { return s.Flood / 2 }

// TransportRow is one (buffer size, fallback mode) population of the
// transport report.
type TransportRow struct {
	// Buf is the advertised EDNS0 size (0 = no OPT, classic 512).
	Buf      uint16
	Fallback FallbackMode

	// Queries is one per probe in this population; the next five split
	// their outcomes exactly.
	Queries int64
	// Answered counts usable answers; AnsweredTCP is the subset the stub
	// obtained over TCP after a TC=1.
	Answered    int64
	AnsweredTCP int64
	// Truncated counts TC=1 responses the stub could not retry.
	Truncated int64
	ServFail  int64
	Timeouts  int64
	// UpstreamTC counts TC=1 responses the population's resolvers saw
	// from the authoritatives (each is a fallback or a dead end).
	UpstreamTC int64
}

// AnswerRate is the fraction of queries that produced a usable answer.
func (r TransportRow) AnswerRate() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Answered) / float64(r.Queries)
}

// BufLabel renders the buffer-size axis value.
func (r TransportRow) BufLabel() string {
	if r.Buf == 0 {
		return "no-edns"
	}
	return itoa(int(r.Buf))
}

// TransportResult is the transport scenario outcome.
type TransportResult struct {
	Flood   float64
	TCPLoss float64
	Rows    []TransportRow
}

// transportTXTName is the fat record every probe asks for; it is added
// to each testbed's (per-testbed, mutable) cachetest.nl zone.
const transportTXTName = "fat.txt." + Domain

// transportTXT builds the ~1.8 KB TXT payload: over the 1232-octet
// flag-day budget, comfortably under 4096.
func transportTXT() dnswire.TXT {
	big := make([]string, 8)
	for i := range big {
		b := make([]byte, 220)
		for j := range b {
			b[j] = 'q'
		}
		big[i] = string(b)
	}
	return dnswire.TXT{Strings: big}
}

// newTransportRows builds the empty row set.
func newTransportRows() []TransportRow {
	rows := make([]TransportRow, transportCombos)
	for i := range rows {
		rows[i].Buf = transportBufs[i/len(transportModes)]
		rows[i].Fallback = transportModes[i%len(transportModes)]
	}
	return rows
}

// runTransportTestbed runs one cell: per probe, a dedicated resolver and
// stub sharing the probe's (buffer, fallback) combo, querying the fat
// TXT record through a flood at the authoritatives.
func runTransportTestbed(spec TransportSpec, base TestbedConfig) (*TransportResult, *Testbed) {
	probes, seed := base.Probes, base.Seed
	tb := NewTestbed(base)

	tb.AuthZone.MustAdd(dnswire.RR{Name: transportTXTName, TTL: 3600,
		Data: transportTXT()})

	// The authoritatives answer on both planes; the flood drops UDP hard
	// and the TCP plane at its own (lower) rate.
	for i, addr := range tb.AuthAddrs {
		tb.Auths[i].AttachTCP(tb.Net, addr)
		if spec.Flood > 0 {
			tb.Net.SetInboundLoss(addr, spec.Flood)
			tb.Net.SetInboundLossTCP(addr, spec.tcpLoss())
		}
	}

	res := &TransportResult{Flood: spec.Flood, TCPLoss: spec.tcpLoss(),
		Rows: newTransportRows()}
	resolvers := make([]*recursive.Resolver, 0, probes)
	// One behaviour per row, shared by its trials.
	cfgs := make([]recursive.Config, len(res.Rows))
	for i, row := range res.Rows {
		cfgs[i] = profile("default")
		cfgs[i].RootHints, cfgs[i].EDNSSize = tb.rootHints(), row.Buf
		cfgs[i].TCPFallback = row.Fallback != FallbackNone
	}

	for pid := 1; pid <= probes; pid++ {
		ri := transportRow(pid)
		row := &res.Rows[ri]
		mode := row.Fallback

		r := recursive.New(tb.Clk, &cfgs[ri], mixSeed(seed, pid))
		rAddr := advAddr("10.7", pid)
		r.Attach(tb.Net, rAddr)
		resolvers = append(resolvers, r)

		c := stub.New(tb.Clk, stub.Config{
			Timeout:     15 * time.Second,
			EDNSSize:    row.Buf,
			TCPFallback: mode == FallbackFull,
		})
		c.Attach(tb.Net, advAddr("10.6", pid))

		at := time.Duration(pid-1) * 5 * time.Millisecond
		clock.AfterFunc(tb.Clk, at, func() {
			row.Queries++
			c.Query(rAddr, transportTXTName, dnswire.TypeTXT, func(sr stub.Result) {
				switch {
				case sr.Truncated:
					row.Truncated++
				case sr.Err != nil:
					row.Timeouts++
				case sr.Msg.RCode == dnswire.RCodeServFail:
					row.ServFail++
				default:
					row.Answered++
					if sr.TCP {
						row.AnsweredTCP++
					}
				}
			})
		})
	}
	tb.Clk.Run()

	// Attribute the upstream-leg truncations: resolvers are per-probe,
	// so each one's counter belongs to exactly one row.
	for i, r := range resolvers {
		res.Rows[transportRow(i+1)].UpstreamTC += r.Stats().Truncated
	}

	return res, advCollect(tb, resolvers, nil)
}

// absorb adds one cell's rows (integer sums, aligned by combo index)
// into the run total.
func (r *TransportResult) absorb(cell *TransportResult) {
	for i, row := range cell.Rows {
		r.Rows[i].Queries += row.Queries
		r.Rows[i].Answered += row.Answered
		r.Rows[i].AnsweredTCP += row.AnsweredTCP
		r.Rows[i].Truncated += row.Truncated
		r.Rows[i].ServFail += row.ServFail
		r.Rows[i].Timeouts += row.Timeouts
		r.Rows[i].UpstreamTC += row.UpstreamTC
	}
}

// transportInvariants checks the run's outcome laws; the TCP plane's
// conservation is one of the engine laws every run gets. The glue
// no-drop invariants do not apply: the flood drops packets by design.
func transportInvariants(spec TransportSpec, res *TransportResult, snap metrics.Snapshot) []metrics.Invariant {
	var queries, outcomes, truncFull int64
	var answeredFull, queriesFull, servfailRec, queriesRec, timeouts int64
	for _, row := range res.Rows {
		queries += row.Queries
		outcomes += row.Answered + row.Truncated + row.ServFail + row.Timeouts
		timeouts += row.Timeouts
		switch row.Fallback {
		case FallbackFull:
			truncFull += row.Truncated
			answeredFull += row.Answered
			queriesFull += row.Queries
		case FallbackResolver:
			servfailRec += row.ServFail
			queriesRec += row.Queries
		}
	}
	invs := []metrics.Invariant{
		metrics.EqualInt("transport_outcomes_conserved",
			outcomes, queries, "answered+truncated+servfail+timeout", "queries"),
		metrics.EqualInt("full_fallback_absorbs_tc",
			truncFull, 0, "truncated under full fallback", "zero"),
	}
	if spec.Flood == 0 {
		// A lossless run resolves deterministically: no timeouts, full
		// fallback always answers, resolver-side fallback never SERVFAILs.
		invs = append(invs,
			metrics.EqualInt("no_flood_no_timeouts",
				timeouts, 0, "timeouts", "zero"),
			metrics.EqualInt("full_fallback_all_answered",
				answeredFull, queriesFull, "answered", "full-fallback queries"),
			metrics.EqualInt("resolver_fallback_no_servfail",
				servfailRec, 0, "servfails", "zero"),
		)
	}
	return invs
}

type transportScenario struct{ spec TransportSpec }

// TransportScenario wraps a DoTCP-fallback spec as a Scenario.
func TransportScenario(spec TransportSpec) Scenario {
	return transportScenario{spec: spec}
}

// Spec exposes the wrapped spec for golden tests.
func (s transportScenario) Spec() TransportSpec { return s.spec }

func (s transportScenario) Name() string {
	if s.spec.Flood > 0 {
		return "transport-f" + itoa(int(s.spec.Flood*100+0.5))
	}
	return "transport"
}

func (s transportScenario) labels() map[string]string {
	bufs := ""
	for i, b := range transportBufs {
		if i > 0 {
			bufs += "x"
		}
		bufs += itoa(int(b))
	}
	return map[string]string{
		"bufs":     bufs,
		"flood":    strconv.FormatFloat(s.spec.Flood, 'g', -1, 64),
		"tcp_loss": strconv.FormatFloat(s.spec.tcpLoss(), 'g', -1, 64),
	}
}

func (s transportScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	total := &TransportResult{Flood: s.spec.Flood, TCPLoss: s.spec.tcpLoss(),
		Rows: newTransportRows()}
	return runCells(ctx, s.Name(), cfg, cellRun[*TransportResult]{
		cell: func(base TestbedConfig) (*TransportResult, *Testbed) {
			return runTransportTestbed(s.spec, base)
		},
		fold: total.absorb,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Transport = total
			return s.labels(), transportInvariants(s.spec, total, snap)
		},
	})
}

// RenderTransport prints the answer-rate table of one transport run:
// one row per (buffer, fallback) population.
func RenderTransport(r *TransportResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "flood %.0f%% udp / %.0f%% tcp\n", 100*r.Flood, 100*r.TCPLoss)
	fmt.Fprintf(&sb, "%-10s %-8s %8s %8s %8s %8s %8s %8s %8s %9s\n",
		"buffer", "fallback", "queries", "answered", "via-tcp",
		"trunc", "servfail", "timeout", "up-tc", "answer %")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %-8s %8d %8d %8d %8d %8d %8d %8d %9.1f\n",
			row.BufLabel(), row.Fallback.String(), row.Queries, row.Answered,
			row.AnsweredTCP, row.Truncated, row.ServFail, row.Timeouts,
			row.UpstreamTC, 100*row.AnswerRate())
	}
	return sb.String()
}
