// Package metrics is the simulator's zero-dependency instrumentation
// layer, in two halves that meet once per run:
//
//   - Live instruments. Components (resolver, cache, authoritative,
//     netsim, vantage) embed Counter/Histogram values in their structs
//     and update them inline: Inc/Observe are single atomic operations —
//     no map lookups, no allocations, no registration.
//
//   - The collected document. At the end of a run each component's
//     CollectMetrics adds its values to a named Scope of the run's
//     Registry, which is the Snapshot under construction: plain maps,
//     built and read on one goroutine. Per-cell snapshots fold with
//     Registry.Merge, and report.go wraps the result with labels and
//     invariant verdicts as the run report.
//
// Exact arithmetic over samples (quantiles, means) is internal/stats.
package metrics

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, so components embed it by value.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBucketsMs are the fixed upper bin edges (milliseconds)
// used for every latency histogram in the repository. The range covers a
// same-rack round trip up to the resolver client timeout; the paper's
// latency figures (9, 15) live comfortably inside it.
var DefaultLatencyBucketsMs = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// maxHistogramBins bounds a histogram's bin count (bounds plus the
// overflow bin). The bins live in a fixed inline array so Init allocates
// nothing — components embed histograms by value, and hundreds of
// resolvers are built per simulated run.
const maxHistogramBins = 16

// Histogram is a fixed-bin histogram with atomic bin counts. Init must be
// called once before Observe; a Histogram is embeddable by value and all
// methods are safe for concurrent use after Init.
type Histogram struct {
	bounds []float64 // ascending upper bin edges; values above the last land in the overflow bin
	counts [maxHistogramBins]atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Init sets the bin edges. bounds must be ascending with at most
// maxHistogramBins-1 entries; the slice is aliased, not copied (callers
// pass shared package-level bucket sets).
func (h *Histogram) Init(bounds []float64) {
	if len(bounds) >= maxHistogramBins {
		panic("metrics: too many histogram bounds")
	}
	h.bounds = bounds
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search beats linear scan only for large bucket sets; the
	// fixed sets here are small, but sort.SearchFloat64s stays allocation
	// free and keeps the bins ordered by construction.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Snapshot returns a copyable view of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1), // one per bound plus overflow
		Count:  h.n.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is one run's collected metrics: the Snapshot being built.
// Every registry is filled, snapshotted and dropped on one goroutine, so
// it holds plain maps and no lock.
type Registry struct {
	scopes map[string]*ScopeSnapshot
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]*ScopeSnapshot)}
}

// Scope is a write handle on one named ScopeSnapshot of a Registry.
type Scope struct{ snap *ScopeSnapshot }

// Scope returns the named scope, creating it (empty) on first use.
func (r *Registry) Scope(name string) Scope {
	s, ok := r.scopes[name]
	if !ok {
		s = &ScopeSnapshot{Name: name}
		r.scopes[name] = s
	}
	return Scope{s}
}

// Add adds v to the named counter, creating it at zero on first use.
func (s Scope) Add(name string, v int64) {
	if s.snap.Counters == nil {
		s.snap.Counters = make(map[string]int64)
	}
	s.snap.Counters[name] += v
}

// Observe folds h bin-wise into the named histogram, creating it empty
// with h's bounds on first use. The repository never mixes bucket
// layouts under one name, so different bounds panic. Sum is a float
// accumulator: callers that need determinism observe in a fixed order.
func (s Scope) Observe(name string, h HistogramSnapshot) {
	cur, ok := s.snap.Histograms[name]
	if !ok {
		if s.snap.Histograms == nil {
			s.snap.Histograms = make(map[string]HistogramSnapshot)
		}
		cur = HistogramSnapshot{Bounds: h.Bounds, Counts: make([]int64, len(h.Counts))}
	} else if !slices.Equal(cur.Bounds, h.Bounds) {
		panic("metrics: observing histograms with different bounds")
	}
	for i, c := range h.Counts {
		cur.Counts[i] += c
	}
	cur.Count += h.Count
	cur.Sum += h.Sum
	s.snap.Histograms[name] = cur
}

// Merge folds a snapshot into the registry: scopes union, counters sum,
// histograms Observe. The sharded engine merges per-cell snapshots in
// cell-index order, which fixes the order of the float Sum additions.
func (r *Registry) Merge(snap Snapshot) {
	for _, sc := range snap.Scopes {
		s := r.Scope(sc.Name)
		for name, v := range sc.Counters {
			s.Add(name, v)
		}
		for name, h := range sc.Histograms {
			s.Observe(name, h)
		}
	}
}

// Snapshot returns the collected scopes sorted by name. It shares the
// registry's maps: snapshot once, when collection is done.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Scopes: make([]ScopeSnapshot, 0, len(r.scopes))}
	for _, s := range r.scopes {
		snap.Scopes = append(snap.Scopes, *s)
	}
	sort.Slice(snap.Scopes, func(i, j int) bool { return snap.Scopes[i].Name < snap.Scopes[j].Name })
	return snap
}
