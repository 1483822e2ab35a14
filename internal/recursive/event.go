package recursive

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// kind identifies one countable resolver event. The Stats/metrics
// counter, the timeline series and the trace record of an event all hang
// off its row of the kinds table, and event is the only code that
// touches any of the three (DESIGN.md §14.1).
type kind uint8

const (
	kClientQuery kind = iota
	kClientResponse
	kCacheHit
	kCacheMiss
	kNegativeHit
	kStaleServe
	kLateAnswer
	kUpstreamQuery
	kUpstreamRetry
	kTimeout
	kServFail
	kLame
	kTruncated
	kClientTruncated
	// Kinds without a counter: a second record at a site another kind
	// already counts.
	kClientServFail // the SERVFAIL a client receives (kServFail counts every failed task)
	kReferral
	kTCPFallback // counted as the upstream retry it also is

	numKinds
)

const (
	noSeries = -1 // the kind feeds no timeline series

	pSrc   uint8 = 1 // the trace record carries the resolver's address as Src
	pForce uint8 = 2 // the trace record bypasses sampling
)

// kinds is the one table of resolver events: exposition counter name
// ("" = not counted), timeline series, trace record type (EvNone = not
// traced) and payload flags. Counter rows are in exposition order.
var kinds = [numKinds]struct {
	counter string
	series  int
	typ     trace.Type
	flags   uint8
}{
	kClientQuery:     {"client_queries", noSeries, trace.EvResolveStart, pSrc},
	kClientResponse:  {"client_responses", noSeries, trace.EvResolveDone, pSrc},
	kCacheHit:        {"cache_hits", timeline.CacheHit, trace.EvNone, 0},
	kCacheMiss:       {"cache_misses", noSeries, trace.EvNone, 0},
	kNegativeHit:     {"negative_hits", noSeries, trace.EvNone, 0},
	kStaleServe:      {"stale_serves", timeline.StaleServed, trace.EvStaleServe, 0},
	kLateAnswer:      {"late_answers", noSeries, trace.EvNone, 0},
	kUpstreamQuery:   {"upstream_queries", noSeries, trace.EvUpstreamQuery, pSrc},
	kUpstreamRetry:   {"upstream_retries", timeline.Retry, trace.EvNone, 0},
	kTimeout:         {"timeouts", timeline.UpstreamTimeout, trace.EvUpstreamTimeout, pSrc},
	kServFail:        {"servfails", noSeries, trace.EvNone, 0},
	kLame:            {"lame", noSeries, trace.EvNone, 0},
	kTruncated:       {"truncated", noSeries, trace.EvTruncate, pSrc},
	kClientTruncated: {"client_truncated", noSeries, trace.EvTruncate, pSrc},
	kClientServFail:  {"", noSeries, trace.EvServFail, pSrc | pForce},
	kReferral:        {"", noSeries, trace.EvReferral, 0},
	kTCPFallback:     {"", timeline.TCPFallback, trace.EvTCPFallback, pSrc},
}

// payload is what a call site knows about one event. Only the trace
// record reads it; the zero value suits kinds that are never traced.
type payload struct {
	name  string // the record's Name, and the query name its probe ID is parsed from
	probe string // the query name when Name is something else (a referral's child zone) or nothing
	a, b  uint32
	dst   netsim.Addr
}

// event records one occurrence of kind k: one counter add, then the
// timeline bin and the trace record when the cell collects them. It
// allocates nothing; with both observers off it costs the add and two
// nil checks.
func (r *Resolver) event(k kind, p payload) {
	r.n[k].Inc()
	d := &kinds[k]
	if r.timeline != nil && d.series != noSeries {
		r.timeline.Add(r.clk.Now(), d.series, 1)
	}
	tr := r.trace
	if tr == nil || d.typ == trace.EvNone {
		return
	}
	if p.probe == "" {
		p.probe = p.name
	}
	ev := trace.Event{Type: d.typ, Probe: trace.ProbeFromName(p.probe),
		Name: p.name, A: p.a, B: p.b, Dst: string(p.dst)}
	if d.flags&pSrc != 0 {
		ev.Src = string(r.Addr())
	}
	if d.flags&pForce != 0 {
		tr.Force(ev)
	} else {
		tr.Emit(ev)
	}
}

// CollectMetrics folds this resolver's counters into a metrics scope;
// experiment testbeds merge every resolver of a run into one "resolver"
// scope of the run's registry.
func (r *Resolver) CollectMetrics(s metrics.Scope) {
	for k := range kinds {
		if name := kinds[k].counter; name != "" {
			s.Add(name, r.n[k].Value())
		}
	}
	s.ObserveLive("upstream_rtt_ms", &r.upstreamRTTms)
}
