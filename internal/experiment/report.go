package experiment

import (
	"fmt"

	"repro/internal/metrics"
)

// tapInvariants checks the conservation laws of the testbed's pre-drop
// tap, shared by every family: arrivals split exactly into dropped and
// delivered, and every query that survives the drop is handled (and
// counted) by an authoritative. Under attack the tap sees at least as
// many arrivals as survive the loss window; with no window armed nothing
// may be dropped.
func tapInvariants(snap metrics.Snapshot, underAttack bool) []metrics.Invariant {
	ts := snap.Scope("testbed")
	arrivals, dropped, delivered := ts.Counter("auth_arrivals"), ts.Counter("auth_dropped"), ts.Counter("auth_delivered")
	conserved := metrics.EqualInt("auth_arrivals_conserved",
		arrivals, dropped+delivered, "arrivals", "dropped+delivered")
	handled := metrics.EqualInt("auth_delivered_match_handled",
		delivered, snap.Scope("authoritative").Counter("queries"), "delivered", "handled")
	if underAttack {
		return []metrics.Invariant{
			metrics.AtLeastInt("auth_arrivals_ge_delivered", arrivals, delivered, "arrivals", "delivered"),
			conserved, handled}
	}
	return []metrics.Invariant{conserved,
		metrics.EqualInt("no_attack_no_drops", dropped, 0, "dropped", "zero"), handled}
}

// engineLaws are the accounting laws every run of the cell engine obeys,
// whatever the family: each plane of the network conserves its packets,
// the event loop conserves its timers, every client query a resolver
// accepted got one response, and every probe query recorded one answer.
// runCells appends them to every family's own invariants, read off the
// merged snapshot (DESIGN.md §12.5).
func engineLaws(snap metrics.Snapshot) []metrics.Invariant {
	ns, ck := snap.Scope("netsim"), snap.Scope("clock")
	rs, vs := snap.Scope("resolver"), snap.Scope("vantage")
	return []metrics.Invariant{
		metrics.EqualInt("udp_plane_conserved",
			ns.Counter("delivered")+ns.Counter("dropped")+ns.Counter("dead"),
			ns.Counter("sent"), "delivered+dropped+dead", "sent"),
		metrics.EqualInt("tcp_plane_conserved",
			ns.Counter("tcp_delivered")+ns.Counter("tcp_dropped")+ns.Counter("tcp_dead"),
			ns.Counter("tcp_sent"), "delivered+dropped+dead", "sent"),
		metrics.EqualInt("clock_events_conserved",
			ck.Counter("events_fired")+ck.Counter("timers_stopped")+ck.Counter("events_pending"),
			ck.Counter("events_scheduled"), "fired+stopped+pending", "scheduled"),
		metrics.EqualInt("resolver_responses_match_queries",
			rs.Counter("client_responses"), rs.Counter("client_queries"),
			"client_responses", "client_queries"),
		metrics.EqualInt("vantage_answers_match_queries",
			vs.Counter("answers_recorded"), vs.Counter("queries_sent"),
			"answers_recorded", "queries_sent"),
	}
}

// DDoSInvariants cross-checks a DDoS run's client-side tallies against
// the component counters in snap. It is exported (within the package API
// surface via the report) primarily so tests can inject an accounting
// error into a result and watch the checker fail.
func DDoSInvariants(res *DDoSResult, snap metrics.Snapshot) []metrics.Invariant {
	invs := []metrics.Invariant{
		// Every probe query the fleet sent must appear exactly once in the
		// Table 4 query total (the analysis walks the same answer log the
		// probes filled in).
		metrics.EqualInt("vantage_queries_match_table4",
			snap.Scope("vantage").Counter("queries_sent"), int64(res.Table4.Queries),
			"queries_sent", "table4_queries"),
		// Per-round outcomes partition the queries: OK + SERVFAIL +
		// NoAnswer summed over all rounds (overflow bin included) equals
		// the query total.
		metrics.EqualInt("round_outcomes_sum_to_queries",
			res.Answers.Total(ansOK)+res.Answers.Total(ansServFail)+res.Answers.Total(ansNoAnswer),
			int64(res.Table4.Queries),
			"ok+servfail+noanswer", "table4_queries"),
	}
	invs = append(invs, tapInvariants(snap, true)...)
	return append(invs, latencyMatchesAnswered(res))
}

// latencyMatchesAnswered checks that every round's latency summary holds
// exactly one RTT sample per answered (OK or SERVFAIL) query of that
// round. This is the invariant the pre-fix DDoS analysis violated: RTTs
// were binned with a clamped round index while outcomes were not, so the
// two series disagreed on runs with late-landing answers.
func latencyMatchesAnswered(res *DDoSResult) metrics.Invariant {
	for r := range res.Latency {
		answered := res.Answers.Get(r, ansOK) + res.Answers.Get(r, ansServFail)
		if int64(res.Latency[r].N) != answered {
			return metrics.Invariant{
				Name: "latency_samples_match_answered",
				Detail: fmt.Sprintf("round=%d latency_n=%d answered=%d",
					r, res.Latency[r].N, answered),
			}
		}
	}
	return metrics.Invariant{
		Name:   "latency_samples_match_answered",
		OK:     true,
		Detail: fmt.Sprintf("rounds=%d", len(res.Latency)),
	}
}

// cachingInvariants cross-checks a §3 run: the answer totals against the
// fleet counters, then the calm tap laws.
func cachingInvariants(res *CachingResult, snap metrics.Snapshot) []metrics.Invariant {
	return append([]metrics.Invariant{
		metrics.EqualInt("vantage_queries_match_table1",
			snap.Scope("vantage").Counter("queries_sent"), int64(res.Table1.Queries),
			"queries_sent", "table1_queries"),
		metrics.EqualInt("answers_partition",
			int64(res.Table1.Answers),
			int64(res.Table1.AnswersValid+res.Table1.AnswersDisc),
			"answers", "valid+disc"),
	}, tapInvariants(snap, false)...)
}
