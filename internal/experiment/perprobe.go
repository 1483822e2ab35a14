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

// PerProbe computes Table 7 for one probe from a finished testbed.
func PerProbe(tb *Testbed, res *DDoSResult, probeID uint16) Table7 {
	spec := res.Spec
	rounds := int(spec.TotalDur / spec.ProbeInterval)
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
		if a.Round < 0 || a.Round >= rounds {
			continue
		}
		row := &out.Rounds[a.Round]
		row.ClientQueries++
		if a.Ok() {
			row.ClientAnswers++
			r1Used[a.Round][a.Recursive] = true
		}
	}
	for r := range out.Rounds {
		out.Rounds[r].R1Used = len(r1Used[r])
	}

	qname := vantage.QName(probeID, Domain)
	ats := make([]map[uint8]bool, rounds)
	rns := make([]map[uint32]bool, rounds)
	for i := range ats {
		ats[i] = make(map[uint8]bool)
		rns[i] = make(map[uint32]bool)
	}
	series := res.AuthQueries // same binning
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType != dnswire.TypeAAAA || tb.AuthQName(ev) != qname {
				continue
			}
			r := series.RoundOf(tb.Start.Add(ev.At))
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

// BusiestProbe returns the probe whose name drew the most authoritative
// queries — a good Table 7 subject, like the paper's probe 28477 with its
// multi-level recursives. For sharded runs use
// ShardedTestbed.BusiestProbe, which routes across cells.
func BusiestProbe(tb *Testbed) uint16 {
	id, _ := busiestProbeCount(tb)
	return id
}

// busiestProbeCount returns the busiest probe of one testbed along with
// its AAAA arrival count, so sharded runs can compare winners across
// cells.
func busiestProbeCount(tb *Testbed) (uint16, int) {
	counts := make(map[string]int)
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType == dnswire.TypeAAAA {
				counts[tb.AuthQName(ev)]++
			}
		}
	}
	best, bestN := uint16(0), -1
	for _, p := range tb.Pop.Probes {
		if n := counts[vantage.QName(p.ID, Domain)]; n > bestN {
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
