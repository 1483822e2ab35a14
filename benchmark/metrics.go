package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric the command prints. BENCHMARK.json and
// the README glossary list the same names; the package test keeps the
// three in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. Host time throughout: for the simulator
// workloads a "query" is one simulated stub query, for the daemon
// workloads one real UDP query.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"cpu_us_per_query", "us", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics, reported by every workload with
// --trace 1. A workload that bypasses a layer reports that layer's
// metrics as 0.
var perLayer = []metricDef{
	{"dnswire.pack_ns", "ns", "lower", 0},
	{"dnswire.unpack_ns", "ns", "lower", 0},
	{"dnswire.pack_allocs", "count", "lower", 0},
	{"dnswire.unpack_allocs", "count", "lower", 0},
	{"dnswire.msg_bytes_mean", "B", "lower", 0},

	{"zone.lookup_ns", "ns", "lower", 0},
	{"zone.parse_ns_per_rr", "ns", "lower", 0},

	{"cache.get_hit_ns", "ns", "lower", 0},
	{"cache.get_miss_ns", "ns", "lower", 0},
	{"cache.peek_ns", "ns", "lower", 0},
	{"cache.put_ns", "ns", "lower", 0},
	{"cache.put_evict_ns", "ns", "lower", 0},
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.puts", "count", "lower", 0},
	{"cache.stale_hits", "count", "higher", 0},
	{"cache.evictions", "count", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},

	{"clock.schedule_fire_ns", "ns", "lower", 0},
	{"clock.schedule_stop_ns", "ns", "lower", 0},
	{"clock.events_fired", "count", "lower", 0},
	{"clock.events_scheduled", "count", "lower", 0},
	{"clock.timers_stopped", "count", "lower", 0},
	{"clock.stop_ratio", "ratio", "lower", 0},
	{"clock.events_per_probe", "ratio", "lower", 0},
	{"clock.events_per_s", "1/s", "higher", 0},

	{"netsim.send_deliver_ns", "ns", "lower", 0},
	{"netsim.send_drop_ns", "ns", "lower", 0},
	{"netsim.sent", "count", "lower", 0},
	{"netsim.delivered", "count", "lower", 0},
	{"netsim.dropped", "count", "lower", 0},
	{"netsim.drop_ratio", "ratio", "lower", 0},

	{"authoritative.handle_wire_ns", "ns", "lower", 0},
	{"authoritative.handle_wire_allocs", "count", "lower", 0},
	{"authoritative.queries", "count", "lower", 0},

	{"recursive.resolve_hit_ns", "ns", "lower", 0},
	{"recursive.resolve_cold_ns", "ns", "lower", 0},
	{"recursive.resolve_cold_allocs", "count", "lower", 0},
	{"recursive.handle_query_hit_ns", "ns", "lower", 0},
	{"recursive.client_queries", "count", "lower", 0},
	{"recursive.upstream_queries", "count", "lower", 0},
	{"recursive.upstream_retries", "count", "lower", 0},
	{"recursive.timeouts", "count", "lower", 0},
	{"recursive.servfails", "count", "lower", 0},
	{"recursive.stale_serves", "count", "higher", 0},
	{"recursive.upstream_per_client", "ratio", "lower", 0},
	{"recursive.retry_share", "ratio", "lower", 0},
	{"recursive.useful_share", "ratio", "higher", 0},
	{"recursive.hit_latency_p50_us", "us", "lower", 0},
	{"recursive.miss_latency_p50_us", "us", "lower", 0},
	{"recursive.miss_share", "ratio", "lower", 0},

	{"stub.query_round_ns", "ns", "lower", 0},

	{"vantage.collect_ns_per_answer", "ns", "lower", 0},
	{"vantage.queries_sent", "count", "lower", 0},
	{"vantage.timeouts", "count", "lower", 0},
	{"vantage.answered_share", "ratio", "higher", 0},

	{"experiment.probes_per_s", "1/s", "higher", 0},
	{"experiment.alloc_bytes_per_probe", "B", "lower", 0},
	{"experiment.allocs_per_probe", "count", "lower", 0},
	{"experiment.build_s", "s", "lower", 0},
	{"experiment.simulate_s", "s", "lower", 0},
	{"experiment.collect_s", "s", "lower", 0},
	{"experiment.report_s", "s", "lower", 0},
	{"experiment.ns_per_event", "ns", "lower", 0},
	{"experiment.budget_coverage", "ratio", "higher", 0},
	{"experiment.trace_overhead_share", "ratio", "lower", 0},

	{"spec.compile_ns", "ns", "lower", 0},
	{"parallel.speedup_2", "ratio", "higher", 0},

	{"udprun.echo_rtt_us", "us", "lower", 0},
	{"udprun.loop_post_ns", "ns", "lower", 0},
	{"udprun.latency_p50_us", "us", "lower", 0},
	{"udprun.latency_p99_us", "us", "lower", 0},
	{"udprun.latency_p999_us", "us", "lower", 0},

	{"authd.cpu_us_per_query", "us", "lower", 0},
	{"recursived.cpu_us_per_query", "us", "lower", 0},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fillMetrics builds the result's metric map from values: exactly the
// declared names, each once, each finite. Declared metrics a workload did
// not set are reported as 0 when zeroFill is set (per-layer metrics of a
// bypassed layer) and are an error otherwise.
func fillMetrics(defs []metricDef, values map[string]float64, zeroFill bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// percentile returns the nearest-rank p-quantile (0 <= p <= 1) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastDecile is the value one tenth of the way in from a sample's better
// end: the 90th percentile when higher is better, the 10th when lower is.
// Interference from a shared host only ever slows a run down, so the fast
// decile of many short samples repeats far better than their median.
func fastDecile(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return percentile(s, 0.90)
	}
	return percentile(s, 0.10)
}

// summary formats a sample as "median [q1 .. q3] n=N" for the tables.
func summary(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.6g [%.6g .. %.6g] n=%d",
		median(s), percentile(s, 0.25), percentile(s, 0.75), len(s))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
