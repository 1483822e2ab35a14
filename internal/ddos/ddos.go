// Package ddos schedules emulated volumetric attacks against authoritative
// servers: timed changes of the inbound packet-loss rate at the targets,
// mirroring the paper's iptables-based random drop of incoming queries
// (§5.1). Loss is applied at the network's delivery point, so the
// authoritative-side taps still observe (and count) the dropped queries,
// exactly like the paper's pre-drop packet captures (§6.1).
package ddos

import (
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// Attack describes one emulated DDoS: Loss fraction of inbound packets to
// every target dropped from Start (relative to schedule time) for
// Duration. Duration 0 means the attack never ends within the experiment.
type Attack struct {
	Targets  []netsim.Addr
	Loss     float64
	Start    time.Duration
	Duration time.Duration
}

// Schedule arms the attack on net using clk. It returns immediately; the
// loss changes fire at the configured offsets. An Attack is the
// one-phase packet-drop special case of a Plan (see SchedulePhases);
// callers and RNG streams of the single-window form are untouched.
func Schedule(clk clock.Clock, net *netsim.Network, a Attack) {
	SchedulePhases(clk, net, Plan{
		Targets: a.Targets,
		Phases: []Phase{{
			Start: a.Start, Duration: a.Duration,
			Intensity: a.Loss, Mode: ModeDrop,
		}},
	})
}

// Flood describes a volumetric attack by offered load instead of a loss
// rate: AttackQPS of junk lands on each target whose ingress handles
// CapacityQPS. The observable loss follows from the overload — a server
// at 10x its capacity drops 90% (the arithmetic of §6.1: "a server
// experiencing a volumetric attack causing 90% loss must be receiving
// 10x its capacity"). Legitimate traffic is negligible against the flood,
// as in the paper.
type Flood struct {
	AttackQPS   float64
	CapacityQPS float64
}

// LossRate converts the overload into the random-drop probability a
// legitimate query experiences.
func (f Flood) LossRate() float64 {
	if f.CapacityQPS <= 0 {
		return 1
	}
	// No loss unless the attack alone exceeds capacity: the legitimate
	// load rides within the server's headroom, so an attack that merely
	// fills capacity (attack == capacity) must not shed legitimate
	// queries.
	if f.AttackQPS <= f.CapacityQPS {
		return 0
	}
	offered := f.AttackQPS + f.CapacityQPS*0.01 // legit load ≪ capacity
	return 1 - f.CapacityQPS/offered
}
