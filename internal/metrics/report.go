package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts has one
// entry per bound plus a final overflow bin.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// ScopeSnapshot is a point-in-time copy of one scope. encoding/json
// serializes maps with sorted keys, so marshaling a snapshot is
// deterministic.
type ScopeSnapshot struct {
	Name       string                       `json:"name"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter value from the snapshot (0 when absent).
func (s ScopeSnapshot) Counter(name string) int64 { return s.Counters[name] }

// Snapshot is a full registry snapshot, scopes sorted by name.
type Snapshot struct {
	Scopes []ScopeSnapshot `json:"scopes"`
}

// Scope returns the named scope snapshot (zero value when absent).
func (s Snapshot) Scope(name string) ScopeSnapshot {
	for _, sc := range s.Scopes {
		if sc.Name == name {
			return sc
		}
	}
	return ScopeSnapshot{}
}

// Invariant is one cross-component consistency check evaluated over a
// run's metrics. A failed invariant means the run's accounting is
// internally inconsistent — exactly the class of defect that silently
// skews per-round figures.
type Invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// EqualInt builds an equality invariant over two counts.
func EqualInt(name string, a, b int64, aLabel, bLabel string) Invariant {
	return Invariant{
		Name:   name,
		OK:     a == b,
		Detail: fmt.Sprintf("%s=%d %s=%d", aLabel, a, bLabel, b),
	}
}

// AtLeastInt builds an a >= b invariant over two counts.
func AtLeastInt(name string, a, b int64, aLabel, bLabel string) Invariant {
	return Invariant{
		Name:   name,
		OK:     a >= b,
		Detail: fmt.Sprintf("%s=%d %s=%d", aLabel, a, bLabel, b),
	}
}

// AllOK reports whether every invariant holds.
func AllOK(invs []Invariant) bool {
	for _, inv := range invs {
		if !inv.OK {
			return false
		}
	}
	return true
}

// Report is one run's structured result: identifying labels, the full
// metrics snapshot, and the invariant verdicts. Reports carry no
// wall-clock timestamps, so two runs of the same seed marshal to
// identical bytes regardless of worker count or machine.
type Report struct {
	// Name identifies the run (e.g. "ddos-B", "caching-ttl3600").
	Name string `json:"name"`
	// Labels carry run parameters as strings (probes, seed, ttl, ...).
	Labels map[string]string `json:"labels,omitempty"`
	// Metrics is the run's registry snapshot.
	Metrics Snapshot `json:"metrics"`
	// Invariants are the cross-component consistency verdicts.
	Invariants []Invariant `json:"invariants,omitempty"`
}

// OK reports whether every invariant in the report holds.
func (r *Report) OK() bool { return AllOK(r.Invariants) }

// FailedInvariants returns the invariants that do not hold.
func (r *Report) FailedInvariants() []Invariant {
	var out []Invariant
	for _, inv := range r.Invariants {
		if !inv.OK {
			out = append(out, inv)
		}
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReportsJSON writes several run reports as one indented JSON
// document: {"reports": [...]}.
func WriteReportsJSON(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Reports []*Report `json:"reports"`
	}{Reports: reports})
}
