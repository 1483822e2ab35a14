package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one reconstructed stub query: an EvStubIssue matched with its
// closing EvStubAnswer, EvStubTimeout or stub-side EvTruncate by (probe,
// stub query ID) in temporal order.
type Span struct {
	Cell     int
	Probe    uint16
	ID       uint32 // stub DNS query ID (the B field)
	Name     string
	Start    time.Duration
	End      time.Duration
	Retries  int
	Outcome  string // "ok", "servfail", "nxdomain", "rcode-N", "timeout", "truncated"
	RCode    uint32
	Complete bool // closing event seen
}

// Failed reports whether the span ended without a usable answer.
func (s Span) Failed() bool {
	return !s.Complete || s.Outcome == "timeout" || s.Outcome == "servfail" || s.Outcome == "truncated"
}

func outcomeForRCode(rc uint32) string {
	switch rc {
	case 0:
		return "ok"
	case 2:
		return "servfail"
	case 3:
		return "nxdomain"
	default:
		return fmt.Sprintf("rcode-%d", rc)
	}
}

type spanKey struct {
	probe uint16
	id    uint32
}

func sampledProbe(probe uint16, sample int) bool {
	if sample <= 1 {
		return true
	}
	return probe != 0 && int(probe-1)%sample == 0
}

// matchSpans reconstructs the stub query spans of one cell, in issue
// order, and reports any balance problems: a close without a matching
// open, a second open before the first closed, or opens never closed.
// Ring overwrites (Dropped > 0) legitimately truncate chains, so callers
// gate strictness on that counter. Unsampled probes only appear through
// forced terminal events (sample > 1), so their open-less closes become
// zero-length spans rather than problems. Probe 0 is every stub asking
// for a name without a probe label (transport's shared TXT record,
// glue's NS and A queries); records carry no stub address, so probe-0
// queries sharing an ID match first-in-first-out, balance still checked.
func matchSpans(c CellTrace, sample int) (spans []Span, problems []string) {
	open := make(map[spanKey][]int) // key -> indices into spans, oldest first
	for _, ev := range c.Events {
		k := spanKey{ev.Probe, ev.B}
		switch ev.Type {
		case EvStubIssue:
			if q := open[k]; len(q) > 0 && ev.Probe != 0 {
				problems = append(problems,
					fmt.Sprintf("cell %d probe %d id %d: reopened at %v before close (opened %v)",
						c.Cell, ev.Probe, ev.B, ev.At, spans[q[0]].Start))
			}
			open[k] = append(open[k], len(spans))
			spans = append(spans, Span{
				Cell: c.Cell, Probe: ev.Probe, ID: ev.B, Name: ev.Name, Start: ev.At,
			})
		case EvStubRetry:
			if q := open[k]; len(q) > 0 {
				spans[q[0]].Retries++
			}
		case EvStubAnswer, EvStubTimeout, EvTruncate:
			if ev.Type == EvTruncate && (ev.Name == "" || ev.Dst != "") {
				continue // a server or resolver truncating, not a stub giving up
			}
			var sp *Span
			if q := open[k]; len(q) > 0 {
				sp, open[k] = &spans[q[0]], q[1:]
			} else if !sampledProbe(ev.Probe, sample) {
				// Forced terminal event for an unsampled probe: keep it
				// as a zero-length span so failures stay findable.
				spans = append(spans, Span{Cell: c.Cell, Probe: ev.Probe, ID: ev.B,
					Name: ev.Name, Start: ev.At})
				sp = &spans[len(spans)-1]
			} else {
				problems = append(problems,
					fmt.Sprintf("cell %d probe %d id %d: close at %v without open",
						c.Cell, ev.Probe, ev.B, ev.At))
				continue
			}
			sp.End = ev.At
			sp.Complete = true
			switch ev.Type {
			case EvStubTimeout:
				sp.Outcome = "timeout"
			case EvTruncate:
				sp.Outcome = "truncated"
			default:
				sp.RCode = ev.A
				sp.Outcome = outcomeForRCode(ev.A)
			}
		}
	}
	for k, q := range open {
		for _, i := range q {
			problems = append(problems,
				fmt.Sprintf("cell %d probe %d id %d: opened at %v, never closed",
					c.Cell, k.probe, k.id, spans[i].Start))
		}
	}
	sort.Strings(problems)
	return spans, problems
}

// Spans reconstructs every cell's stub query spans.
func (d *Data) Spans() []Span {
	var out []Span
	for _, c := range d.Cells {
		spans, _ := matchSpans(c, d.SampleEvery)
		out = append(out, spans...)
	}
	return out
}

// Validate checks trace well-formedness: balanced span open/close per
// cell (skipped where the ring overwrote events), monotone non-negative
// timestamps, and at most one terminal close per span (enforced by the
// matcher). It returns a sorted list of problems, empty when clean.
func (d *Data) Validate() []string {
	var problems []string
	for _, c := range d.Cells {
		var last time.Duration = -1 << 62
		classifySeen := false
		for i, ev := range c.Events {
			if ev.Type == EvClassify {
				// Classification is a post-run annotation pass; its
				// timestamps rewind to each answer's send time.
				classifySeen = true
				continue
			}
			if classifySeen {
				problems = append(problems, fmt.Sprintf(
					"cell %d: runtime event %s at index %d after classify section", c.Cell, ev.Type, i))
				break
			}
			if ev.At < last {
				problems = append(problems, fmt.Sprintf(
					"cell %d: time went backwards at index %d (%v after %v)", c.Cell, i, ev.At, last))
				break
			}
			last = ev.At
		}
		if c.Dropped > 0 {
			continue // overwritten prefix can legitimately unbalance spans
		}
		_, sp := matchSpans(c, d.SampleEvery)
		problems = append(problems, sp...)
	}
	sort.Strings(problems)
	return problems
}

// TypeCounts tallies events by type name.
func (d *Data) TypeCounts() map[string]int {
	out := make(map[string]int)
	for _, c := range d.Cells {
		for _, ev := range c.Events {
			out[ev.Type.String()]++
		}
	}
	return out
}

// Timeline returns one probe's events within a cell, in order.
func (d *Data) Timeline(cell int, probe uint16) []Event {
	var out []Event
	for _, c := range d.Cells {
		if c.Cell != cell {
			continue
		}
		for _, ev := range c.Events {
			if ev.Probe == probe {
				out = append(out, ev)
			}
		}
	}
	return out
}

// FirstFailure finds the earliest failed stub span (timeout or
// SERVFAIL) across the run, scanning cells in index order.
func (d *Data) FirstFailure() (Span, bool) {
	var best Span
	found := false
	for _, sp := range d.Spans() {
		if !sp.Complete || !sp.Failed() {
			continue
		}
		if !found || sp.End < best.End {
			best = sp
			found = true
		}
	}
	return best, found
}

// FirstHijack finds the earliest stub span whose window contains a
// spoof_hit event — an answer delivered by an off-path spoofer instead
// of the legitimate authoritative. A poisoned span completes with
// outcome "ok" (the stub cannot tell), so FirstFailure never surfaces
// it; this is the adversary-family entry point behind `trace -fail`.
func (d *Data) FirstHijack() (Span, bool) {
	var best Span
	found := false
	for _, sp := range d.Spans() {
		if !sp.Complete || !d.spanContains(sp, EvSpoofHit) {
			continue
		}
		if !found || sp.End < best.End {
			best = sp
			found = true
		}
	}
	return best, found
}

// spanContains reports whether the span's probe saw an event of the
// given type inside the span window.
func (d *Data) spanContains(sp Span, typ Type) bool {
	for _, c := range d.Cells {
		if c.Cell != sp.Cell {
			continue
		}
		for _, ev := range c.Events {
			if ev.Type == typ && ev.Probe == sp.Probe &&
				ev.At >= sp.Start && ev.At <= sp.End {
				return true
			}
		}
	}
	return false
}

// Explain reconstructs the full event chain behind one stub span — the
// probe's own events inside the span window plus the global attack
// windows in force — answering "why did probe P fail at time T".
func (d *Data) Explain(sp Span) []Event {
	var out []Event
	for _, c := range d.Cells {
		if c.Cell != sp.Cell {
			continue
		}
		for _, ev := range c.Events {
			switch {
			case ev.Type == EvAttackStart || ev.Type == EvAttackEnd:
				if ev.At <= sp.End {
					out = append(out, ev)
				}
			case ev.Probe == sp.Probe && ev.Type != EvClassify:
				if ev.At >= sp.Start && ev.At <= sp.End {
					out = append(out, ev)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// FormatEvent renders one event as a human-readable line.
func FormatEvent(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %-16s", ev.At, ev.Type)
	if ev.Probe != 0 {
		fmt.Fprintf(&b, " probe=%d", ev.Probe)
	}
	switch ev.Type {
	case EvStubIssue:
		fmt.Fprintf(&b, " qtype=%d id=%d", ev.A, ev.B)
	case EvStubRetry:
		fmt.Fprintf(&b, " attempt=%d id=%d", ev.A, ev.B)
	case EvStubAnswer:
		fmt.Fprintf(&b, " rcode=%d id=%d", ev.A, ev.B)
	case EvStubTimeout:
		fmt.Fprintf(&b, " attempts=%d id=%d", ev.A, ev.B)
	case EvResolveDone:
		fmt.Fprintf(&b, " rcode=%d stale=%d", ev.A, ev.B)
	case EvUpstreamQuery:
		fmt.Fprintf(&b, " qtype=%d", ev.A)
	case EvAttackStart:
		fmt.Fprintf(&b, " loss=%.2f", float64(ev.A)/1e6)
	case EvAuthAnswer:
		fmt.Fprintf(&b, " rcode=%d", ev.A)
	case EvClassify:
		fmt.Fprintf(&b, " round=%d class=%d", ev.A, ev.B)
	}
	if ev.Name != "" {
		fmt.Fprintf(&b, " name=%s", ev.Name)
	}
	if ev.Src != "" {
		fmt.Fprintf(&b, " src=%s", ev.Src)
	}
	if ev.Dst != "" {
		fmt.Fprintf(&b, " dst=%s", ev.Dst)
	}
	return b.String()
}
