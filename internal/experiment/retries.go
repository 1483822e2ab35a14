package experiment

// The §6.2/Appendix E software study (Figure 16): how many queries a
// BIND-like and an Unbound-like resolver send to each level of the
// hierarchy (root, nl, cachetest.nl) for one AAAA lookup, with the
// target's authoritatives up and then unreachable. Each probe is one
// trial — a dedicated cold resolver asked once by its own stub — on the
// same testbed every other family runs on, so the counts are those of
// the hierarchy §5/§6 attack.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/stub"
	"repro/internal/vantage"
)

// retryProfiles are the two resolver implementations Appendix E
// measures, rows of recursive's profile table. Both keep the default of 7
// tries per fetch: the ~6-7 retries per name §6.2 observes when servers
// are dead.
var retryProfiles = [...]string{"bind", "unbound"}

// RetryRow is one profile/state line of the retry study (Figure 16):
// integer sums over its trials, so cells merge exactly.
type RetryRow struct {
	Profile string
	Down    bool
	// Trials counts lookups started; Answered those that got a positive
	// answer.
	Trials   int64
	Answered int64
	// Root, NL and Target count the trials' queries arriving at each
	// level's servers, dropped ones included.
	Root   int64
	NL     int64
	Target int64
}

// mean is n per trial.
func (r RetryRow) mean(n int64) float64 { return ratio(float64(n), float64(r.Trials)) }

// total is the row's queries per trial over all levels.
func (r RetryRow) total() float64 { return r.mean(r.Root + r.NL + r.Target) }

// RetriesResult is the §6.2/Appendix E software-retry matrix.
type RetriesResult struct {
	Rows []RetryRow
}

// newRetryRows builds the empty matrix: per profile, servers up then
// down. Probe pid runs trial row (pid-1) mod len(rows).
func newRetryRows() []RetryRow {
	rows := make([]RetryRow, 0, 2*len(retryProfiles))
	for _, name := range retryProfiles {
		rows = append(rows, RetryRow{Profile: name}, RetryRow{Profile: name, Down: true})
	}
	return rows
}

// runRetriesTestbed runs one cell: the up trials 5 ms apart, then, a
// minute after the last has started, the cachetest.nl authoritatives go
// dark and the down trials run.
func runRetriesTestbed(base TestbedConfig) (*RetriesResult, *Testbed) {
	probes, seed := base.Probes, base.Seed
	tb := NewTestbed(base)
	rows := newRetryRows()

	// A trial's queries are told apart by their source: its resolver.
	rowOf := make(map[netsim.Addr]int, probes)
	tb.Net.AddMsgTap(func(ev netsim.Event) {
		ri, ok := rowOf[ev.Src]
		if !ok {
			return
		}
		switch row := &rows[ri]; {
		case ev.Dst == RootAddr:
			row.Root++
		case ev.Dst == TLDAddr:
			row.NL++
		case slices.Contains(tb.AuthAddrs, ev.Dst):
			row.Target++
		}
	})

	downAt := time.Duration(probes)*5*time.Millisecond + time.Minute
	clock.AfterFunc(tb.Clk, downAt, func() {
		for _, a := range tb.AuthAddrs {
			tb.Net.SetInboundLoss(a, 1)
		}
	})

	// One behaviour per profile, shared by its trials; a trial waits out
	// every retry.
	var cfgs [len(retryProfiles)]recursive.Config
	for i, name := range retryProfiles {
		cfgs[i] = profile(name)
		cfgs[i].RootHints = tb.rootHints()
		cfgs[i].ClientTimeout = 30 * time.Second
	}
	resolvers := make([]*recursive.Resolver, 0, probes)
	for pid := 1; pid <= probes; pid++ {
		ri := (pid - 1) % len(rows)
		r := recursive.New(tb.Clk, &cfgs[ri/2], mixSeed(seed, pid))
		rAddr := advAddr("10.7", pid)
		r.Attach(tb.Net, rAddr)
		rowOf[rAddr] = ri
		resolvers = append(resolvers, r)

		c := stub.New(tb.Clk, stub.Config{Timeout: 15 * time.Second})
		c.Attach(tb.Net, advAddr("10.6", pid))

		qname := vantage.QName(uint16(pid), Domain)
		row := &rows[ri]
		at := time.Duration(pid-1) * 5 * time.Millisecond
		if row.Down {
			at += downAt
		}
		clock.AfterFunc(tb.Clk, at, func() {
			row.Trials++
			c.Query(rAddr, qname, dnswire.TypeAAAA, func(res stub.Result) {
				if res.Err == nil && res.Msg.RCode == dnswire.RCodeNoError && len(res.Msg.Answers) > 0 {
					row.Answered++
				}
			})
		})
	}
	tb.Clk.Run()

	return &RetriesResult{Rows: rows}, advCollect(tb, resolvers, nil)
}

// absorb adds one cell's rows into the run total.
func (r *RetriesResult) absorb(cell *RetriesResult) {
	for i, row := range cell.Rows {
		t := &r.Rows[i]
		t.Trials += row.Trials
		t.Answered += row.Answered
		t.Root += row.Root
		t.NL += row.NL
		t.Target += row.Target
	}
}

// retriesInvariants checks tap conservation plus the family's own laws:
// the trials are the only traffic at the target's authoritatives, and
// every query of a down trial reached them only to be dropped.
func retriesInvariants(res *RetriesResult, snap metrics.Snapshot) []metrics.Invariant {
	var target, down int64
	for _, row := range res.Rows {
		target += row.Target
		if row.Down {
			down += row.Target
		}
	}
	ts := snap.Scope("testbed")
	return append(tapInvariants(snap, true),
		metrics.EqualInt("retries_target_is_tap",
			target, ts.Counter("auth_arrivals"), "target queries", "auth arrivals"),
		metrics.EqualInt("retries_down_all_dropped",
			down, ts.Counter("auth_dropped"), "down-trial target queries", "auth dropped"),
	)
}

type retriesScenario struct{}

// RetriesScenario is the software-retry study as a Scenario: both
// profiles in both server states, a quarter of the probes each.
func RetriesScenario() Scenario { return retriesScenario{} }

func (retriesScenario) Name() string { return "retries" }

func (retriesScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	total := &RetriesResult{Rows: newRetryRows()}
	return runCells(ctx, "retries", cfg, cellRun[*RetriesResult]{
		cell: runRetriesTestbed,
		fold: total.absorb,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Retries = total
			return nil, retriesInvariants(total, snap)
		},
	})
}

// RenderRetries formats the retry matrix (Figure 16) the way the
// committed paper tables print it: per-trial means by level.
func RenderRetries(r *RetriesResult) string {
	var b strings.Builder
	for _, row := range r.Rows {
		state := "up  "
		if row.Down {
			state = "down"
		}
		fmt.Fprintf(&b, "%-8s %s  root=%5.1f  nl=%5.1f  cachetest.nl=%5.1f  total=%5.1f  answered=%d/%d\n",
			row.Profile, state, row.mean(row.Root), row.mean(row.NL), row.mean(row.Target),
			row.total(), row.Answered, row.Trials)
	}
	return b.String()
}
