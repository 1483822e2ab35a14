package experiment

// The §8 implications study: why did users barely notice the root DNS
// DDoSes while a DNS provider's customers felt theirs immediately? Two
// services of the same testbed are attacked side by side:
//
//   - "root-like": the root itself, as four letters of six anycast sites
//     each, answering a.root-servers.net. A with its day-long TTL; the
//     attack saturates two letters completely and half the sites of the
//     other two, as in the Nov 2015 event [23].
//   - "CDN-like": cachetest.nl, on its two unicast authoritatives at
//     120-second TTLs (DNS-based load balancing), both at 90% loss — the
//     Dyn shape.
//
// Each probe is one client re-resolving one name of each service every
// minute through a caching recursive it shares with nine other clients;
// the per-minute failure counts tell the story.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/ddos"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/stub"
	"repro/internal/timeline"
)

// The study's fixed shape.
const (
	implLetters        = 4
	implSitesPerLetter = 6
	// implClientsPerRecursive clients share one recursive, so popular
	// names stay cached between any one client's queries.
	implClientsPerRecursive = 10
	implDuration            = 90 * time.Minute
	implHorizon             = implDuration + time.Minute // a cell's run, last answers included
	implAttackStart         = 30 * time.Minute
	implAttackDur           = 30 * time.Minute
	implQueryInterval       = time.Minute
	// implCDNTTL is the CDN-like record TTL (the paper's 120-300 s) unless
	// RunConfig.TTL sets another.
	implCDNTTL = 120
	// implCDNName is the CDN-like service's one popular name, added to the
	// cell's cachetest.nl zone. It carries no probe label: every client
	// asks for it, so its trace spans match by stub ID alone.
	implCDNName = "www." + Domain
)

// The columns of ImplicationsResult.Series: a service's ok column, then
// its fail column.
const (
	implRootOK = iota
	implRootFail
	implCDNOK
	implCDNFail
)

var implColumns = []string{"root-ok", "root-fail", "cdn-ok", "cdn-fail"}

// ImplicationsResult reports per-minute outcomes for both services, plus
// integer in-attack totals, so cells merge exactly.
type ImplicationsResult struct {
	// Series counts each service's ok and failed lookups per minute, by
	// send time; columns are the impl* enum.
	Series *timeline.Timeline
	// RootOK, RootFail, CDNOK and CDNFail count the queries sent inside
	// the attack window, by service and outcome.
	RootOK, RootFail int64
	CDNOK, CDNFail   int64
}

// RootFailDuringAttack is the root-like failure fraction inside the
// attack window.
func (r *ImplicationsResult) RootFailDuringAttack() float64 {
	return ratio(float64(r.RootFail), float64(r.RootOK+r.RootFail))
}

// CDNFailDuringAttack is the CDN-like failure fraction inside the attack
// window.
func (r *ImplicationsResult) CDNFailDuringAttack() float64 {
	return ratio(float64(r.CDNFail), float64(r.CDNOK+r.CDNFail))
}

func newImplicationsResult() *ImplicationsResult {
	return &ImplicationsResult{Series: timeline.New(testbedStart, implQueryInterval,
		int(implDuration/implQueryInterval), implColumns)}
}

// absorb adds one cell's counts into the run total.
func (r *ImplicationsResult) absorb(cell *ImplicationsResult) {
	r.Series.Merge(cell.Series)
	r.RootOK += cell.RootOK
	r.RootFail += cell.RootFail
	r.CDNOK += cell.CDNOK
	r.CDNFail += cell.CDNFail
}

// runImplicationsTestbed runs one cell: a testbed with anycast root
// letters, one shared recursive per ten clients, the clients' staggered
// once-a-minute lookups, and the attack.
func runImplicationsTestbed(base TestbedConfig) (*ImplicationsResult, *Testbed) {
	clients := base.Probes
	base.rootSites = make([]int, implLetters)
	for l := range base.rootSites {
		base.rootSites[l] = implSitesPerLetter
	}
	tb := NewTestbed(base)
	tb.AuthZone.MustAdd(dnswire.RR{Name: implCDNName, TTL: tb.Cfg.TTL,
		Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::2")}})

	resolvers := make([]*recursive.Resolver, (clients+implClientsPerRecursive-1)/implClientsPerRecursive)
	cfg := profile("default")
	cfg.RootHints = tb.rootHints()
	for i := range resolvers {
		r := recursive.New(tb.Clk, &cfg, mixSeed(base.Seed, i))
		r.Attach(tb.Net, advAddr("10.8", i))
		resolvers[i] = r
	}

	res := newImplicationsResult()
	tl := tb.Net.Timeline()
	// record counts one lookup of the service whose ok column is col, sent
	// at sentAt; one sent inside the attack window also lands in *ok or
	// *fail. The run timeline bins its outcome when it lands.
	record := func(col int, sentAt time.Time, ok, fail *int64) func(stub.Result) {
		return func(r stub.Result) {
			c, outcome, n := col, timeline.Answered, ok
			if r.Err != nil || r.Msg.RCode != dnswire.RCodeNoError || len(r.Msg.Answers) == 0 {
				c, outcome, n = col+1, timeline.ServFail, fail
				if r.Err != nil {
					outcome = timeline.Failed
				}
			}
			res.Series.Add(sentAt, c, 1)
			tl.Add(tb.Clk.Now(), outcome, 1)
			if off := sentAt.Sub(tb.Start); off >= implAttackStart && off < implAttackStart+implAttackDur {
				*n++
			}
		}
	}
	for pid := 1; pid <= clients; pid++ {
		c := stub.New(tb.Clk, stub.Config{})
		c.Attach(tb.Net, advAddr("10.9", pid))
		rec := advAddr("10.8", (pid-1)%len(resolvers))
		offset := time.Duration(pid-1) * implQueryInterval / time.Duration(clients)
		for at := offset; at < implDuration; at += implQueryInterval {
			clock.AfterFunc(tb.Clk, at, func() {
				sentAt := tb.Clk.Now()
				c.Query(rec, rootLetterName(0), dnswire.TypeA, record(implRootOK, sentAt, &res.RootOK, &res.RootFail))
				c.Query(rec, implCDNName, dnswire.TypeAAAA, record(implCDNOK, sentAt, &res.CDNOK, &res.CDNFail))
			})
		}
	}

	// The attack: two letters fully saturated, half the sites of the other
	// two at 90%, and both cachetest.nl authoritatives at 90%.
	var full, partial []netsim.Addr
	for l, n := range base.rootSites {
		for s := 0; s < n; s++ {
			switch {
			case l < implLetters/2:
				full = append(full, rootSiteAddr(l, s))
			case s%2 == 0:
				partial = append(partial, rootSiteAddr(l, s))
			}
		}
	}
	for _, a := range []ddos.Attack{
		{Targets: full, Loss: 1},
		{Targets: partial, Loss: 0.9},
		{Targets: tb.AuthAddrs, Loss: 0.9},
	} {
		a.Start, a.Duration = implAttackStart, implAttackDur
		ddos.Schedule(tb.Clk, tb.Net, a)
	}

	tb.Clk.RunUntil(tb.Start.Add(implHorizon))
	return res, advCollect(tb, resolvers, nil)
}

type implicationsScenario struct{}

// ImplicationsScenario is the §8 root-like vs CDN-like study as a
// Scenario: one client per probe. RunConfig.TTL, when set, replaces the
// CDN-like TTL.
func ImplicationsScenario() Scenario { return implicationsScenario{} }

func (implicationsScenario) Name() string { return "implications" }

func (implicationsScenario) run(ctx context.Context, cfg RunConfig) (*Outcome, error) {
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = implCDNTTL
	}
	total := newImplicationsResult()
	return runCells(ctx, "implications", cfg, cellRun[*ImplicationsResult]{
		horizon: implHorizon,
		cell: func(base TestbedConfig) (*ImplicationsResult, *Testbed) {
			base.TTL = ttl
			return runImplicationsTestbed(base)
		},
		fold: total.absorb,
		finish: func(out *Outcome, snap metrics.Snapshot) (map[string]string, []metrics.Invariant) {
			out.Implications = total
			return nil, tapInvariants(snap, true)
		},
	})
}

// RenderImplications prints the §8 comparison.
func RenderImplications(r *ImplicationsResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %10s %10s %10s %10s\n",
		"minute", "root-ok", "root-fail", "cdn-ok", "cdn-fail")
	for m := 0; m < r.Series.Rounds(); m++ {
		row := r.Series.Bins[m]
		fmt.Fprintf(&sb, "%8d %10d %10d %10d %10d\n", m,
			row[implRootOK], row[implRootFail], row[implCDNOK], row[implCDNFail])
	}
	fmt.Fprintf(&sb, "\nfailure during the attack: root-like %.1f%%, CDN-like %.1f%%\n",
		100*r.RootFailDuringAttack(), 100*r.CDNFailDuringAttack())
	return sb.String()
}
