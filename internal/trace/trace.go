// Package trace is the engine's deterministic query-lifecycle tracing
// subsystem (DESIGN.md §14). Each population cell owns one ring Buffer;
// the cell's event loop is single-threaded, so the buffer needs no lock
// ("lock-free" by construction, not by atomics). Events are stamped with
// the simulated clock, never the wall clock, so a trace is bit-identical
// for a given seed at any shard or worker count — the same guarantee the
// engine makes for run reports.
//
// The buffer lives on the cell's netsim.Network (SetTrace, once, before
// anything binds); every engine copies the pointer when it attaches and
// guards its emit sites — the resolver has one, the event hook behind
// the kind table of internal/recursive/event.go — with a nil check:
//
//	if tr := c.trace; tr != nil {
//	    tr.Emit(trace.Event{Type: trace.EvCacheHit, Probe: p, Name: name})
//	}
//
// With tracing on, the Event literal lives on the stack, its strings
// alias existing memory, and Emit appends into a preallocated ring — no
// per-event allocation in steady state.
//
// Per-VP sampling bounds million-VP runs: Config.SampleEvery N keeps
// every Nth probe (by cell-local probe ID, which does not depend on the
// shard count). Terminal failures are always recorded — Force bypasses
// sampling so a SERVFAIL is never invisible, even for unsampled probes.
package trace

import "time"

// Type identifies one event kind in the fixed lifecycle schema.
type Type uint8

// The event schema, covering the full query lifecycle. A/B are
// type-specific small arguments (documented per constant); Name/Src/Dst
// carry the query name and simulated addresses where meaningful.
const (
	EvNone Type = iota
	// Stub (vantage-point) lifecycle. B carries the stub's DNS query ID,
	// which matches opening and closing events of one query span.
	EvStubIssue   // stub sent the first attempt; A=qtype, B=id
	EvStubRetry   // stub re-sent after a timeout; A=attempt (2..), B=id
	EvStubAnswer  // stub accepted an answer; A=rcode, B=id
	EvStubTimeout // stub exhausted its retries; A=attempts made, B=id
	// Recursive-resolver lifecycle.
	EvResolveStart    // resolver accepted a client query; A=qtype
	EvResolveDone     // resolver answered the client; A=rcode, B=1 if stale
	EvCacheHit        // fresh positive cache hit
	EvCacheStale      // expired entry served under serve-stale
	EvCacheNegHit     // negative (NXDOMAIN/NODATA) cache hit
	EvCacheMiss       // nothing cached for the key
	EvCacheExpired    // entry present but expired past the stale window
	EvStaleServe      // resolver served a stale answer; A=1 on the failure path
	EvReferral        // resolver descended a referral; Name=child zone, Dst=server
	EvUpstreamQuery   // resolver sent an upstream query; A=qtype, Dst=server
	EvUpstreamTimeout // an upstream attempt timed out; Dst=server
	// Simulated network.
	EvNetDeliver // packet delivered; Src/Dst
	EvNetDrop    // packet dropped by inbound loss (the DDoS dial); Src/Dst
	// Attack windows (ddos.Schedule / ddos.SchedulePhases); global
	// events, Probe 0. B carries the phase's forced rcode for the
	// NXDOMAIN/SERVFAIL failure modes and stays 0 for packet drops, so
	// pre-phase traces are unchanged.
	EvAttackStart // failure dial raised; A=intensity in millionths, B=forced rcode, Dst=target
	EvAttackEnd   // failure dial cleared; B=forced rcode, Dst=target
	// Authoritative side.
	EvAuthAnswer // authoritative answered; A=rcode, B=qtype
	// Terminal classification.
	EvServFail // resolver returned SERVFAIL to the client; always recorded
	EvClassify // post-run AA/CC/AC/CA verdict; A=round, B=class code
	// Adversary instrumentation (internal/adversary). Appended after
	// EvClassify: the numeric values of older events are part of the
	// on-disk trace format and never move.
	EvSpoofSend   // off-path spoofer emitted a forged response; A=guessed ID, B=wave index
	EvSpoofHit    // a forged answer was accepted by the victim resolver; A=guessed ID
	EvAdvReferral // malicious authoritative served an NXNS referral; A=delegation width
	EvReflect     // reflector bounced a spoofed-source query; A=request bytes
	// Transport realism (PR 8). Appended after EvReflect, same rule:
	// older numeric values never move.
	EvTruncate    // a response was truncated to the advertised UDP size; A=wire bytes, B=limit. From a stub that got TC=1 and has no TCP fallback (Name and Src set, no Dst, B=id) it ends the query span
	EvTCPConnect  // simulated TCP connection established; Src/Dst
	EvTCPFallback // a TC=1 response triggered a retry over TCP; Dst=server, B=id
)

var typeNames = [...]string{
	EvNone:            "none",
	EvStubIssue:       "stub_issue",
	EvStubRetry:       "stub_retry",
	EvStubAnswer:      "stub_answer",
	EvStubTimeout:     "stub_timeout",
	EvResolveStart:    "resolve_start",
	EvResolveDone:     "resolve_done",
	EvCacheHit:        "cache_hit",
	EvCacheStale:      "cache_stale",
	EvCacheNegHit:     "cache_neg_hit",
	EvCacheMiss:       "cache_miss",
	EvCacheExpired:    "cache_expired",
	EvStaleServe:      "stale_serve",
	EvReferral:        "referral",
	EvUpstreamQuery:   "upstream_query",
	EvUpstreamTimeout: "upstream_timeout",
	EvNetDeliver:      "net_deliver",
	EvNetDrop:         "net_drop",
	EvAttackStart:     "attack_start",
	EvAttackEnd:       "attack_end",
	EvAuthAnswer:      "auth_answer",
	EvServFail:        "servfail",
	EvClassify:        "classify",
	EvSpoofSend:       "spoof_send",
	EvSpoofHit:        "spoof_hit",
	EvAdvReferral:     "adv_referral",
	EvReflect:         "reflect",
	EvTruncate:        "truncate",
	EvTCPConnect:      "tcp_connect",
	EvTCPFallback:     "tcp_fallback",
}

// String returns the event type's stable wire name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "unknown"
}

// ParseType inverts String. It returns EvNone for unknown names.
func ParseType(s string) Type {
	for t, name := range typeNames {
		if name == s {
			return Type(t)
		}
	}
	return EvNone
}

// Event is one lifecycle record. At is simulated time since the run
// epoch (the testbed start), so it is identical across shard and worker
// counts. Probe is the cell-local probe ID the event belongs to (0 =
// infrastructure traffic: harvests, NS fetches, attack windows).
type Event struct {
	At    time.Duration
	Type  Type
	Probe uint16
	A, B  uint32
	Name  string
	Src   string
	Dst   string
}

// Clock is the tracer's view of time — satisfied by every clock.Clock.
// The buffer reads it only inside Emit, so disabled tracing never
// touches the clock.
type Clock interface{ Now() time.Time }

// Config sizes and samples a Buffer.
type Config struct {
	// Capacity is the per-cell ring size in events (default DefaultCapacity).
	// When the ring is full the oldest events are overwritten; Dropped
	// counts the overwrites.
	Capacity int
	// SampleEvery keeps every Nth probe (cell-local probe IDs 1, 1+N,
	// 1+2N, ...). Values <= 1 trace every probe. Probe-0 infrastructure
	// events are recorded only when every probe is traced. Terminal
	// failures (EvServFail) bypass sampling via Force.
	SampleEvery int
}

// DefaultCapacity is the per-cell ring size when Config.Capacity is zero:
// 64Ki events (~4 MiB) per cell.
const DefaultCapacity = 1 << 16

// Buffer is one cell's event ring. It is single-writer: the owning
// cell's simulation loop is the only goroutine that emits, and readers
// (Events) run only after the loop has drained.
type Buffer struct {
	clk     Clock
	epoch   time.Time
	sample  int
	maxCap  int
	events  []Event
	head    int // overwrite cursor once len(events) == maxCap
	dropped uint64
}

// NewBuffer creates a cell buffer. Timestamps are clk.Now() minus epoch.
func NewBuffer(clk Clock, epoch time.Time, cfg Config) *Buffer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	initial := 256
	if initial > capacity {
		initial = capacity
	}
	return &Buffer{
		clk:    clk,
		epoch:  epoch,
		sample: cfg.SampleEvery,
		maxCap: capacity,
		events: make([]Event, 0, initial),
	}
}

// SampleEvery returns the buffer's sampling stride (<=1 = every probe).
func (b *Buffer) SampleEvery() int { return b.sample }

// Sampled reports whether events for the given cell-local probe ID are
// recorded. Probe 0 (infrastructure) is recorded only under full tracing.
func (b *Buffer) Sampled(probe uint16) bool {
	if b.sample <= 1 {
		return true
	}
	if probe == 0 {
		return false
	}
	return int(probe-1)%b.sample == 0
}

// Emit records ev for a sampled probe, stamping At from the simulated
// clock. Unsampled probes are dropped without touching the clock.
func (b *Buffer) Emit(ev Event) {
	if !b.Sampled(ev.Probe) {
		return
	}
	ev.At = b.clk.Now().Sub(b.epoch)
	b.push(ev)
}

// Force records ev regardless of sampling — terminal failures use it so
// a SERVFAIL chain's ending is never invisible.
func (b *Buffer) Force(ev Event) {
	ev.At = b.clk.Now().Sub(b.epoch)
	b.push(ev)
}

// EmitAt records ev with a caller-supplied timestamp (relative to the
// run epoch), for post-run annotations such as classification verdicts.
func (b *Buffer) EmitAt(ev Event) {
	if !b.Sampled(ev.Probe) {
		return
	}
	b.push(ev)
}

// push appends into the ring, overwriting the oldest event when full.
// The ring grows geometrically up to its capacity, so short runs stay
// small and long runs stop allocating once warm.
func (b *Buffer) push(ev Event) {
	if len(b.events) < cap(b.events) {
		b.events = append(b.events, ev)
		return
	}
	if cap(b.events) < b.maxCap {
		grow := 2 * cap(b.events)
		if grow > b.maxCap {
			grow = b.maxCap
		}
		next := make([]Event, len(b.events), grow)
		copy(next, b.events)
		b.events = append(next, ev)
		return
	}
	b.events[b.head] = ev
	b.head++
	if b.head == len(b.events) {
		b.head = 0
	}
	b.dropped++
}

// Dropped returns how many events were overwritten by ring wraparound.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the retained events oldest-first. The slice is a copy;
// call after the simulation loop has drained.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.head:]...)
	out = append(out, b.events[:b.head]...)
	return out
}
