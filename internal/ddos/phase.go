package ddos

import (
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// FailureMode selects what a disruption phase does to the queries that
// reach its targets. The paper's emulation drops packets (§5.1); the
// declarative disruption DSL also models servers that stay reachable but
// answer wrongly — the NXDOMAIN/SERVFAIL failure families of
// chaos-engineering disruption specs.
type FailureMode int

const (
	// ModeDrop discards the phase's fraction of inbound packets at the
	// network delivery point (the paper's iptables emulation).
	ModeDrop FailureMode = iota
	// ModeNXDomain makes the target authoritatives answer the phase's
	// fraction of queries with NXDOMAIN instead of zone data.
	ModeNXDomain
	// ModeServFail makes the target authoritatives answer the phase's
	// fraction of queries with SERVFAIL.
	ModeServFail
)

func (m FailureMode) String() string {
	switch m {
	case ModeDrop:
		return "drop"
	case ModeNXDomain:
		return "nxdomain"
	case ModeServFail:
		return "servfail"
	}
	return "unknown"
}

// RCode returns the forced response code of an answer-corrupting mode
// (0/NoError for ModeDrop, which corrupts nothing).
func (m FailureMode) RCode() dnswire.RCode {
	switch m {
	case ModeNXDomain:
		return dnswire.RCodeNXDomain
	case ModeServFail:
		return dnswire.RCodeServFail
	}
	return dnswire.RCodeNoError
}

// Phase is one time window of a staged disruption: from Start (relative
// to schedule time) for Duration, Intensity of the traffic at every
// target fails in the given Mode.
type Phase struct {
	Start    time.Duration
	Duration time.Duration // 0 = never ends within the experiment
	// Intensity is the affected fraction: the packet-loss rate for
	// ModeDrop, the forced-answer fraction for the rcode modes.
	Intensity float64
	Mode      FailureMode
}

// RCodeServer is the authoritative-side hook the rcode failure modes
// drive; *authoritative.Server implements it.
type RCodeServer interface {
	SetForcedRCode(rc dnswire.RCode, frac float64)
}

// Plan is a staged multi-phase disruption against a fixed target set.
type Plan struct {
	// Targets are the attacked addresses.
	Targets []netsim.Addr
	// Servers, parallel to Targets, are the authoritative engines behind
	// the addresses. Only the rcode failure modes need them; a plan of
	// pure ModeDrop phases may leave Servers nil.
	Servers []RCodeServer
	Phases  []Phase
}

// SchedulePhases arms every phase of the plan on net using clk. It
// returns immediately; the per-phase transitions fire at the configured
// offsets. Phases targeting the same address must not overlap in time
// (the end of one phase clears the dial the next one sets); the spec
// compiler rejects overlapping windows before they get here. When net
// carries a trace buffer, each phase's edges are recorded (EvAttackStart
// / EvAttackEnd per target; B carries the forced rcode, 0 for drops).
func SchedulePhases(clk clock.Clock, net *netsim.Network, p Plan) {
	targets := append([]netsim.Addr(nil), p.Targets...)
	servers := append([]RCodeServer(nil), p.Servers...)
	tr := net.Trace()
	for _, ph := range p.Phases {
		ph := ph
		clock.AfterFunc(clk, ph.Start, func() {
			applyPhase(net, targets, servers, ph, tr, true)
		})
		if ph.Duration > 0 {
			clock.AfterFunc(clk, ph.Start+ph.Duration, func() {
				applyPhase(net, targets, servers, ph, tr, false)
			})
		}
	}
}

// applyPhase raises (on=true) or clears one phase's failure dial at its
// targets.
func applyPhase(net *netsim.Network, targets []netsim.Addr, servers []RCodeServer,
	ph Phase, tr *trace.Buffer, on bool) {

	for i, t := range targets {
		switch ph.Mode {
		case ModeDrop:
			if on {
				net.SetInboundLoss(t, ph.Intensity)
			} else {
				net.SetInboundLoss(t, 0)
			}
		default:
			if i >= len(servers) || servers[i] == nil {
				continue
			}
			if on {
				servers[i].SetForcedRCode(ph.Mode.RCode(), ph.Intensity)
			} else {
				servers[i].SetForcedRCode(ph.Mode.RCode(), 0)
			}
		}
		if tr == nil {
			continue
		}
		if on {
			tr.Force(trace.Event{Type: trace.EvAttackStart,
				A: uint32(ph.Intensity * 1e6), B: uint32(ph.Mode.RCode()),
				Dst: string(t)})
		} else {
			tr.Force(trace.Event{Type: trace.EvAttackEnd,
				B: uint32(ph.Mode.RCode()), Dst: string(t)})
		}
	}
}
