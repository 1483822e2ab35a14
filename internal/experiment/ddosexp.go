package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ddos"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/timeline"
)

// DDoSSpec is one row of the paper's Table 4.
type DDoSSpec struct {
	Name          string
	TTL           uint32
	DDoSStart     time.Duration
	DDoSDur       time.Duration // 0 = until the end of the run (Experiment A)
	TotalDur      time.Duration
	ProbeInterval time.Duration
	Loss          float64
	// TargetsAll attacks every authoritative; otherwise only the first
	// (Experiment D's "50% one NS").
	TargetsAll bool
	// Phases, when non-empty, replaces the single Loss/DDoSStart/DDoSDur
	// window with a staged multi-phase disruption (partial outage → total
	// → recovery, NXDOMAIN/SERVFAIL failure modes) against every
	// authoritative. The scalar fields above then only describe the
	// envelope for display (Table 4). Compiled from spec disruption windows; see
	// internal/spec.
	Phases []ddos.Phase
}

// PaperExperiments are the paper's experiments A–I (Table 4). Durations
// follow the published figures (A runs 120 minutes with no recovery; B–I
// run 180 minutes with recovery after one hour of attack).
var PaperExperiments = []DDoSSpec{
	{Name: "A", TTL: 3600, DDoSStart: 10 * time.Minute, DDoSDur: 0,
		TotalDur: 120 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 1, TargetsAll: true},
	{Name: "B", TTL: 3600, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 1, TargetsAll: true},
	{Name: "C", TTL: 1800, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 1, TargetsAll: true},
	{Name: "D", TTL: 1800, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 0.5, TargetsAll: false},
	{Name: "E", TTL: 1800, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 0.5, TargetsAll: true},
	{Name: "F", TTL: 1800, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 0.75, TargetsAll: true},
	{Name: "G", TTL: 300, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 0.75, TargetsAll: true},
	{Name: "H", TTL: 1800, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 0.9, TargetsAll: true},
	{Name: "I", TTL: 60, DDoSStart: 60 * time.Minute, DDoSDur: 60 * time.Minute,
		TotalDur: 180 * time.Minute, ProbeInterval: 10 * time.Minute, Loss: 0.9, TargetsAll: true},
}

// drillExperiment is the experiment of the paper's per-probe drill-down
// (Appendix F, Table 7): its cells keep their tap log and report Table 7
// for their busiest probe.
const drillExperiment = "I"

// SpecByName returns the named paper experiment.
func SpecByName(name string) (DDoSSpec, bool) {
	for _, s := range PaperExperiments {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return DDoSSpec{}, false
}

// Table4Row is the results block of Table 4.
type Table4Row struct {
	Spec         DDoSSpec
	Probes       int
	ProbesValid  int
	VPs          int
	Queries      int
	TotalAnswers int
	ValidAnswers int
}

// The columns of DDoSResult.Answers, and their names.
const (
	ansOK = iota
	ansServFail
	ansNoAnswer
)

var answerLabels = []string{"OK", "SERVFAIL", "NoAnswer"}

// categoryNames names the classify.Category columns of Figures 7 and 13.
var categoryNames = []string{"Unclassified", "Warmup", "AA", "CC", "AC", "CA"}

// DDoSResult is everything one emulated attack produces.
type DDoSResult struct {
	Spec   DDoSSpec
	Table4 Table4Row
	// Answers counts OK / SERVFAIL / NoAnswer per probing round
	// (Figures 6, 8, 14); columns are the ans* enum.
	Answers *timeline.Timeline
	// Classes counts AA/CC/AC/CA per round (Figure 7); columns are
	// classify.Category.
	Classes *timeline.Timeline
	// Latency summarizes client RTT per round in milliseconds, answered
	// queries only (Figures 9, 15).
	Latency []stats.Summary
	// AuthQueries counts arrivals at the authoritatives per round by the
	// paper's query classes (Figure 10), columns indexed like
	// authLabelNames. Pre-drop, like the paper's captures.
	AuthQueries *timeline.Timeline
	// UniqueRn is the number of distinct resolver addresses querying the
	// authoritatives per round (Figure 12).
	UniqueRn []int
	// RnPerProbe and QueriesPerProbe summarize, per round, how many
	// distinct Rn served one probe's name and how many AAAA queries for
	// it reached the authoritatives (Figure 11).
	RnPerProbe      []stats.Summary
	QueriesPerProbe []stats.Summary
	// Table7 is the drill-down of the run's busiest probe (nil unless the
	// run is drillExperiment).
	Table7 *Table7
}

// horizon is how long a cell of the spec runs: the probing rounds plus
// ten minutes for the last answers to land.
func (spec DDoSSpec) horizon() time.Duration { return spec.TotalDur + 10*time.Minute }

// runDDoSTestbed builds, schedules, and runs one cell's attack world and
// returns it ready for analysis.
func runDDoSTestbed(spec DDoSSpec, base TestbedConfig) *Testbed {
	base.TTL = spec.TTL
	tb := NewTestbed(base)

	targets := tb.AuthAddrs
	if !spec.TargetsAll {
		targets = targets[:1]
	}
	scheduleAttack(tb, spec, targets)

	rounds := int(spec.TotalDur / spec.ProbeInterval)
	tb.ScheduleRotations(spec.TotalDur + RotationInterval)
	tb.Fleet.Schedule(tb.Start, spec.ProbeInterval, 5*time.Minute, rounds)
	tb.Clk.RunUntil(tb.Start.Add(spec.horizon()))
	return tb
}

// specMarks renders the spec's disruption boundaries as timeline
// annotations: one mark per phase edge, or the legacy single-window
// start/end pair. Marks describe the spec, not the run, so every cell
// (and the merged timeline) carries the same list.
func specMarks(spec DDoSSpec) []timeline.Mark {
	var marks []timeline.Mark
	if len(spec.Phases) > 0 {
		for _, ph := range spec.Phases {
			pct := int(ph.Intensity * 100)
			marks = append(marks, timeline.Mark{At: ph.Start,
				Label: fmt.Sprintf("%s %d%% start", ph.Mode, pct)})
			if ph.Duration > 0 {
				marks = append(marks, timeline.Mark{At: ph.Start + ph.Duration,
					Label: fmt.Sprintf("%s %d%% end", ph.Mode, pct)})
			}
		}
		sort.SliceStable(marks, func(i, j int) bool { return marks[i].At < marks[j].At })
		return marks
	}
	marks = append(marks, timeline.Mark{At: spec.DDoSStart,
		Label: fmt.Sprintf("attack start (%d%% loss)", int(spec.Loss*100))})
	if spec.DDoSDur > 0 {
		marks = append(marks, timeline.Mark{At: spec.DDoSStart + spec.DDoSDur,
			Label: "attack end"})
	}
	return marks
}

// scheduleAttack arms the spec's disruption on the targets: the legacy
// single loss window, or the staged phase list when the spec carries
// one. Phases address the full authoritative set and get the servers as
// rcode hooks so the NXDOMAIN/SERVFAIL failure modes can reach past the
// network layer.
func scheduleAttack(tb *Testbed, spec DDoSSpec, targets []netsim.Addr) {
	if len(spec.Phases) > 0 {
		servers := make([]ddos.RCodeServer, len(tb.Auths))
		for i, srv := range tb.Auths {
			servers[i] = srv
		}
		ddos.SchedulePhases(tb.Clk, tb.Net, ddos.Plan{
			Targets: tb.AuthAddrs, Servers: servers,
			Phases: spec.Phases,
		})
		return
	}
	ddos.Schedule(tb.Clk, tb.Net, ddos.Attack{
		Targets: targets, Loss: spec.Loss,
		Start: spec.DDoSStart, Duration: spec.DDoSDur,
	})
}

// clampRound maps an answer's round index into the [0, rounds] tally
// range; index rounds is the overflow bin for answers landing at or past
// TotalDur.
func clampRound(r, rounds int) int {
	if r < 0 {
		return 0
	}
	if r > rounds {
		return rounds
	}
	return r
}
