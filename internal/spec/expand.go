package spec

import (
	"encoding/json"
	"fmt"
)

// Expand performs matrix expansion: every sweep axis in s multiplies the
// spec into one copy per value (cartesian product across axes, in the
// fixed axis order paper → ttl → flood → max_fetch → random_ids →
// no_bailiwick, each sweep in its declared value order). Run names get
// one suffix per swept axis, so expansion order — and therefore campaign
// report order — is deterministic and authorable: the committed
// poisoning matrix, for example, is exactly the declared sweep orders of
// its two boolean axes. A spec with no sweeps expands to itself, and
// Validate has bounded the product at MaxRuns before anything is cloned.
func Expand(s *Spec) ([]*Spec, error) {
	if err := Validate(s); err != nil {
		return nil, err
	}
	list := []*Spec{clone(s)}
	for _, ax := range expanders {
		var next []*Spec
		for _, sp := range list {
			next = append(next, ax(sp)...)
		}
		list = next
	}
	return list, nil
}

// MaxRuns bounds how many runs one spec may expand to: a sweep is a
// small request for multiplied work, so Validate refuses past this.
const MaxRuns = 1024

// sweep describes one unexpanded sweep axis of a spec.
type sweep struct {
	field   string // spec path, e.g. "workload.ttl"
	n       int    // declared values
	repeats bool   // some value is declared twice
}

func sweepOf[T comparable](field string, vals []T) sweep {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		seen[v] = true
	}
	return sweep{field, len(vals), len(seen) != len(vals)}
}

// sweeps lists the spec's unexpanded sweep axes in expansion order.
func sweeps(s *Spec) []sweep {
	var out []sweep
	if len(s.Paper) > 1 {
		out = append(out, sweepOf("paper", s.Paper))
	}
	if w := s.Workload; w != nil && w.TTL.IsSweep() {
		out = append(out, sweepOf("workload.ttl", w.TTL.Sweep()))
	}
	if t := s.Transport; t != nil && t.Flood.IsSweep() {
		out = append(out, sweepOf("transport.flood", t.Flood.Sweep()))
	}
	if a := s.Adversary; a != nil {
		if a.NXNS != nil && a.NXNS.MaxFetch.IsSweep() {
			out = append(out, sweepOf("adversary.nxns.max_fetch", a.NXNS.MaxFetch.Sweep()))
		}
		if p := a.Poison; p != nil && p.RandomIDs.IsSweep() {
			out = append(out, sweepOf("adversary.poison.random_ids", p.RandomIDs.Sweep()))
		}
		if p := a.Poison; p != nil && p.NoBailiwick.IsSweep() {
			out = append(out, sweepOf("adversary.poison.no_bailiwick", p.NoBailiwick.Sweep()))
		}
	}
	return out
}

// expanders are the sweepable axes in expansion order. Each takes one
// spec and returns its expansion along that axis (identity for scalars).
var expanders = []func(*Spec) []*Spec{
	expandPaper,
	expandTTL,
	expandFlood,
	expandMaxFetch,
	expandRandomIDs,
	expandNoBailiwick,
}

func expandPaper(s *Spec) []*Spec {
	if len(s.Paper) <= 1 {
		return []*Spec{s}
	}
	out := make([]*Spec, 0, len(s.Paper))
	for _, name := range s.Paper {
		c := clone(s)
		c.Name = s.Name + "-" + name
		c.Paper = PaperList{name}
		out = append(out, c)
	}
	return out
}

func expandTTL(s *Spec) []*Spec {
	if s.Workload == nil || !s.Workload.TTL.IsSweep() {
		return []*Spec{s}
	}
	out := make([]*Spec, 0, len(s.Workload.TTL.Sweep()))
	for _, v := range s.Workload.TTL.Sweep() {
		c := clone(s)
		c.Name = fmt.Sprintf("%s-ttl%d", s.Name, int64(v))
		c.Workload.TTL = ScalarAxis(v)
		out = append(out, c)
	}
	return out
}

func expandFlood(s *Spec) []*Spec {
	if s.Transport == nil || !s.Transport.Flood.IsSweep() {
		return []*Spec{s}
	}
	out := make([]*Spec, 0, len(s.Transport.Flood.Sweep()))
	for _, v := range s.Transport.Flood.Sweep() {
		c := clone(s)
		c.Name = fmt.Sprintf("%s-flood%.0f", s.Name, 100*v)
		c.Transport.Flood = ScalarAxis(v)
		out = append(out, c)
	}
	return out
}

func expandMaxFetch(s *Spec) []*Spec {
	if s.Adversary == nil || s.Adversary.NXNS == nil || !s.Adversary.NXNS.MaxFetch.IsSweep() {
		return []*Spec{s}
	}
	out := make([]*Spec, 0, len(s.Adversary.NXNS.MaxFetch.Sweep()))
	for _, v := range s.Adversary.NXNS.MaxFetch.Sweep() {
		c := clone(s)
		c.Name = fmt.Sprintf("%s-k%d", s.Name, int64(v))
		c.Adversary.NXNS.MaxFetch = ScalarAxis(v)
		out = append(out, c)
	}
	return out
}

func expandRandomIDs(s *Spec) []*Spec {
	if s.Adversary == nil || s.Adversary.Poison == nil || !s.Adversary.Poison.RandomIDs.IsSweep() {
		return []*Spec{s}
	}
	var out []*Spec
	for _, v := range s.Adversary.Poison.RandomIDs.Sweep() {
		c := clone(s)
		c.Name = s.Name + boolSuffix(v, "-randid", "-seqid")
		c.Adversary.Poison.RandomIDs = ScalarBoolAxis(v)
		out = append(out, c)
	}
	return out
}

func expandNoBailiwick(s *Spec) []*Spec {
	if s.Adversary == nil || s.Adversary.Poison == nil || !s.Adversary.Poison.NoBailiwick.IsSweep() {
		return []*Spec{s}
	}
	var out []*Spec
	for _, v := range s.Adversary.Poison.NoBailiwick.Sweep() {
		c := clone(s)
		c.Name = s.Name + boolSuffix(v, "-nobw", "-bw")
		c.Adversary.Poison.NoBailiwick = ScalarBoolAxis(v)
		out = append(out, c)
	}
	return out
}

func boolSuffix(v bool, t, f string) string {
	if v {
		return t
	}
	return f
}

// clone deep-copies a spec via its JSON form (every leaf type
// round-trips by construction).
func clone(s *Spec) *Spec {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("spec: clone marshal: %v", err))
	}
	var c Spec
	if err := json.Unmarshal(data, &c); err != nil {
		panic(fmt.Sprintf("spec: clone unmarshal: %v", err))
	}
	return &c
}
