package experiment

import (
	"fmt"
	"strings"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/vantage"
)

// Table7Round is one row of the Appendix F per-probe table: the client
// and authoritative views of one probing round.
type Table7Round struct {
	Round int
	// Client view.
	ClientQueries int
	ClientAnswers int
	R1Used        int
	// Authoritative view (pre-drop arrivals for this probe's name).
	AuthQueries  int
	AuthAnswered int // arrivals that were not dropped
	ATsUsed      int
	RnUsed       int
}

// Table7 is the full per-probe drill-down.
type Table7 struct {
	ProbeID uint16
	Rounds  []Table7Round
}

// drillDown builds Table 7 for the cell's busiest probe from the tap log
// the cell kept, and keeps it with the probe's arrival count for merge.
func (ac *ddosAccum) drillDown(tb *Testbed) {
	id, n := busiestProbeCount(tb)
	t7 := ac.perProbe(tb, id)
	ac.drill, ac.drillN = &t7, n
}

// perProbe computes Table 7 for one probe of a finished cell that kept
// its tap log, binned like the Figure 10 series.
func (ac *ddosAccum) perProbe(tb *Testbed, probeID uint16) Table7 {
	rounds := ac.rounds
	out := Table7{ProbeID: probeID, Rounds: make([]Table7Round, rounds)}
	for r := range out.Rounds {
		out.Rounds[r].Round = r
	}

	var probe *vantage.Probe
	for _, p := range tb.Pop.Probes {
		if p.ID == probeID {
			probe = p
			break
		}
	}
	if probe == nil {
		return out
	}

	r1Used := make([]map[netsim.Addr]bool, rounds)
	for i := range r1Used {
		r1Used[i] = make(map[netsim.Addr]bool)
	}
	for _, a := range probe.Answers() {
		if int(a.Round) >= rounds {
			continue
		}
		row := &out.Rounds[a.Round]
		row.ClientQueries++
		if a.Ok() {
			row.ClientAnswers++
			r1Used[a.Round][probe.Recursives[a.Rec]] = true
		}
	}
	for r := range out.Rounds {
		out.Rounds[r].R1Used = len(r1Used[r])
	}

	qname, logged := tb.authNames.idx[probe.QName()]
	if !logged {
		return out
	}
	ats := make([]map[uint8]bool, rounds)
	rns := make([]map[uint32]bool, rounds)
	for i := range ats {
		ats[i] = make(map[uint8]bool)
		rns[i] = make(map[uint32]bool)
	}
	series := ac.authQueries // same binning
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType != dnswire.TypeAAAA || ev.QName != qname {
				continue
			}
			r := series.BinOf(tb.Start.Add(ev.At))
			if r < 0 || r >= rounds {
				continue
			}
			row := &out.Rounds[r]
			row.AuthQueries++
			if !ev.Dropped {
				row.AuthAnswered++
			}
			ats[r][ev.Dst] = true
			rns[r][ev.Src] = true
		}
	}
	for r := range out.Rounds {
		out.Rounds[r].ATsUsed = len(ats[r])
		out.Rounds[r].RnUsed = len(rns[r])
	}
	return out
}

// busiestProbeCount returns the probe of one cell whose name drew the
// most AAAA queries at the authoritatives — a good Table 7 subject, like
// the paper's probe 28477 with its multi-level recursives — along with
// that count, so the merge can compare winners across cells. Ties keep
// the earliest probe.
func busiestProbeCount(tb *Testbed) (uint16, int) {
	counts := make([]int, len(tb.authNames.vals))
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType == dnswire.TypeAAAA {
				counts[ev.QName]++
			}
		}
	}
	best, bestN := uint16(0), -1
	for _, p := range tb.Pop.Probes {
		n := 0
		if i, ok := tb.authNames.idx[p.QName()]; ok {
			n = counts[i]
		}
		if n > bestN {
			best, bestN = p.ID, n
		}
	}
	return best, bestN
}

// RenderTable7 prints the per-probe drill-down.
func RenderTable7(t Table7) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "probe %d\n", t.ProbeID)
	fmt.Fprintf(&sb, "%5s | %8s %8s %6s | %8s %8s %6s %6s\n",
		"T", "cli-q", "cli-ans", "R1s", "auth-q", "auth-ans", "ATs", "Rn")
	for _, row := range t.Rounds {
		fmt.Fprintf(&sb, "%5d | %8d %8d %6d | %8d %8d %6d %6d\n",
			row.Round+1, row.ClientQueries, row.ClientAnswers, row.R1Used,
			row.AuthQueries, row.AuthAnswered, row.ATsUsed, row.RnUsed)
	}
	return sb.String()
}
