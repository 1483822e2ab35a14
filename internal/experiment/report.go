package experiment

import (
	"fmt"

	"repro/internal/metrics"
)

// DDoSInvariants cross-checks a DDoS run's client-side tallies against
// the component counters in snap. It is exported (within the package API
// surface via the report) primarily so tests can inject an accounting
// error into a result and watch the checker fail.
func DDoSInvariants(res *DDoSResult, snap metrics.Snapshot) []metrics.Invariant {
	vp := snap.Scope("vantage")
	ts := snap.Scope("testbed")
	auth := snap.Scope("authoritative")

	invs := []metrics.Invariant{
		// Every probe query the fleet sent must appear exactly once in the
		// Table 4 query total (the analysis walks the same answer log the
		// probes filled in).
		metrics.EqualInt("vantage_queries_match_table4",
			vp.Counter("queries_sent"), int64(res.Table4.Queries),
			"queries_sent", "table4_queries"),
		// Per-round outcomes partition the queries: OK + SERVFAIL +
		// NoAnswer summed over all rounds (overflow bin included) equals
		// the query total.
		metrics.EqualInt("round_outcomes_sum_to_queries",
			sumOutcomes(res), int64(res.Table4.Queries),
			"ok+servfail+noanswer", "table4_queries"),
		// The pre-drop tap sees at least as many arrivals as survive the
		// loss window.
		metrics.AtLeastInt("auth_arrivals_ge_delivered",
			ts.Counter("auth_arrivals"), ts.Counter("auth_delivered"),
			"arrivals", "delivered"),
		// Arrivals split exactly into dropped and delivered.
		metrics.EqualInt("auth_arrivals_conserved",
			ts.Counter("auth_arrivals"),
			ts.Counter("auth_dropped")+ts.Counter("auth_delivered"),
			"arrivals", "dropped+delivered"),
		// Every query that survives the drop is handled (and counted) by
		// an authoritative.
		metrics.EqualInt("auth_delivered_match_handled",
			ts.Counter("auth_delivered"), auth.Counter("queries"),
			"delivered", "handled"),
	}
	invs = append(invs, latencyMatchesAnswered(res))
	return invs
}

// latencyMatchesAnswered checks that every round's latency summary holds
// exactly one RTT sample per answered (OK or SERVFAIL) query of that
// round. This is the invariant the pre-fix DDoS analysis violated: RTTs
// were binned with a clamped round index while outcomes were not, so the
// two series disagreed on runs with late-landing answers.
func latencyMatchesAnswered(res *DDoSResult) metrics.Invariant {
	for r := range res.Latency {
		answered := int64(res.Answers.Get(r, "OK") + res.Answers.Get(r, "SERVFAIL"))
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

// sumOutcomes totals OK + SERVFAIL + NoAnswer over every tallied round.
func sumOutcomes(res *DDoSResult) int64 {
	var total float64
	for r := 0; r < res.Answers.Rounds(); r++ {
		total += res.Answers.Get(r, "OK") +
			res.Answers.Get(r, "SERVFAIL") +
			res.Answers.Get(r, "NoAnswer")
	}
	return int64(total)
}

// cachingInvariants cross-checks a §3 run: the answer totals against the
// fleet counters and the tap conservation law (no loss window is active,
// so arrivals must equal deliveries).
func cachingInvariants(res *CachingResult, snap metrics.Snapshot) []metrics.Invariant {
	vp := snap.Scope("vantage")
	ts := snap.Scope("testbed")
	auth := snap.Scope("authoritative")
	return []metrics.Invariant{
		metrics.EqualInt("vantage_queries_match_table1",
			vp.Counter("queries_sent"), int64(res.Table1.Queries),
			"queries_sent", "table1_queries"),
		metrics.EqualInt("answers_partition",
			int64(res.Table1.Answers),
			int64(res.Table1.AnswersValid+res.Table1.AnswersDisc),
			"answers", "valid+disc"),
		metrics.EqualInt("auth_arrivals_conserved",
			ts.Counter("auth_arrivals"),
			ts.Counter("auth_dropped")+ts.Counter("auth_delivered"),
			"arrivals", "dropped+delivered"),
		metrics.EqualInt("no_attack_no_drops",
			ts.Counter("auth_dropped"), 0, "dropped", "zero"),
		metrics.EqualInt("auth_delivered_match_handled",
			ts.Counter("auth_delivered"), auth.Counter("queries"),
			"delivered", "handled"),
	}
}
