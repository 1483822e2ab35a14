package stats

import (
	"math/rand"
	"testing"
)

// TestCountsSummaryMatchesSummarize is the lossless-reduction contract:
// for integer-valued samples, Counts.Summary must reproduce Summarize on
// the raw slice bit for bit. The sharded engine's byte-identical merge
// rests on this equivalence.
func TestCountsSummaryMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		c := NewCounts()
		var raw []float64
		for i := 0; i < n; i++ {
			v := int64(rng.Intn(5000))
			if rng.Intn(4) == 0 {
				v = int64(rng.Intn(5)) // force duplicates
			}
			c.Observe(v)
			raw = append(raw, float64(v))
		}
		want := Summarize(raw)
		got := c.Summary()
		if got != want {
			t.Fatalf("trial %d (n=%d): Counts.Summary = %+v, Summarize = %+v",
				trial, n, got, want)
		}
		// Quantile is the same exact order statistic for any q, 0 when empty.
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			if got, want := c.Quantile(q), Quantile(raw, q); got != want {
				t.Fatalf("trial %d (n=%d): Counts.Quantile(%v) = %v, Quantile = %v", trial, n, q, got, want)
			}
		}
	}
}

// TestCountsMergeOrderIndependent: merging shard multisets in any order
// yields the same summary as observing all samples in one multiset.
func TestCountsMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole := NewCounts()
	parts := []*Counts{NewCounts(), NewCounts(), NewCounts()}
	for i := 0; i < 300; i++ {
		v := int64(rng.Intn(1000))
		whole.Observe(v)
		parts[rng.Intn(len(parts))].Observe(v)
	}
	forward := NewCounts()
	for _, p := range parts {
		forward.Merge(p)
	}
	backward := NewCounts()
	for i := len(parts) - 1; i >= 0; i-- {
		backward.Merge(parts[i])
	}
	if forward.Summary() != whole.Summary() || backward.Summary() != whole.Summary() {
		t.Fatalf("merged summaries diverge: whole=%+v fwd=%+v bwd=%+v",
			whole.Summary(), forward.Summary(), backward.Summary())
	}
	if forward.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", forward.N(), whole.N())
	}
}
