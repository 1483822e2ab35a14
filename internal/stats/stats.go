// Package stats provides the small statistical toolkit the experiment
// harness uses to render the paper's tables and figures: quantiles, means,
// exact mergeable multisets and empirical CDFs. Time-binned counts live
// in internal/timeline.
package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Median is Quantile(values, 0.5).
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// Summary holds the latency quantiles the paper's Figure 9 plots.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P75    float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary in one pass over a copy of values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		Median: quantileSorted(sorted, 0.5),
		P75:    quantileSorted(sorted, 0.75),
		P90:    quantileSorted(sorted, 0.90),
		Max:    sorted[len(sorted)-1],
	}
}

// Counts is an exact multiset of integer-valued samples, built for the
// sharded experiment engine's streaming merge: per-shard analyzers fold
// samples in with Observe, shards combine with Merge (a commutative sum
// of key counts, so merge order cannot change the result), and Summary
// recovers the same order statistics Summarize computes from the raw
// sample slice. Every sample the engine summarizes this way — RTTs in
// whole milliseconds, per-probe query counts — is integer-valued, so
// unlike a quantile sketch the reduction is lossless: a K-shard run
// reproduces the 1-shard summaries bit for bit, while memory stays
// bounded by the number of distinct values instead of the sample count.
type Counts struct {
	m   map[int64]int64
	n   int64
	sum int64
}

// NewCounts creates an empty multiset.
func NewCounts() *Counts {
	return &Counts{m: make(map[int64]int64)}
}

// Observe adds one sample.
func (c *Counts) Observe(v int64) {
	c.m[v]++
	c.n++
	c.sum += v
}

// N returns the number of observed samples.
func (c *Counts) N() int64 { return c.n }

// Merge folds o's samples into c.
func (c *Counts) Merge(o *Counts) {
	for v, k := range o.m {
		c.m[v] += k
	}
	c.n += o.n
	c.sum += o.sum
}

// quantiles mirrors quantileSorted for each q over one sort of the
// distinct values: it interpolates between the two order statistics
// straddling q*(n-1), which the cumulative key counts locate directly.
// An empty multiset has all-zero quantiles.
func (c *Counts) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if c.n == 0 {
		return out
	}
	keys := make([]int64, 0, len(c.m))
	for v := range c.m {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// orderStat(i) is the value at index i of the expanded sorted slice.
	orderStat := func(i int64) float64 {
		var cum int64
		for _, v := range keys {
			cum += c.m[v]
			if i < cum {
				return float64(v)
			}
		}
		return float64(keys[len(keys)-1])
	}
	for i, q := range qs {
		pos := q * float64(c.n-1)
		lo, hi := int64(math.Floor(pos)), int64(math.Ceil(pos))
		out[i] = orderStat(lo)
		if lo != hi {
			frac := pos - float64(lo)
			out[i] = out[i]*(1-frac) + orderStat(hi)*frac
		}
	}
	return out
}

// Quantile returns what the package-level Quantile would for the
// multiset expanded into a slice: exact, and 0 when empty.
func (c *Counts) Quantile(q float64) float64 { return c.quantiles(q)[0] }

// Summary computes the same statistics Summarize would return for the
// multiset expanded into a sorted slice, exactly: the mean of integers
// is the integer sum divided by N, and the maximum is the 1-quantile.
func (c *Counts) Summary() Summary {
	if c.n == 0 {
		return Summary{}
	}
	q := c.quantiles(0.5, 0.75, 0.90, 1)
	return Summary{N: int(c.n), Mean: float64(c.sum) / float64(c.n),
		Median: q[0], P75: q[1], P90: q[2], Max: q[3]}
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from values (copied).
func NewECDF(values []float64) *ECDF {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// InverseAt returns the smallest x with P(X <= x) >= p.
func (e *ECDF) InverseAt(p float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points renders the ECDF at n evenly spaced probabilities, for printing a
// figure as a series.
func (e *ECDF) Points(n int) []Point {
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		pts = append(pts, Point{X: e.InverseAt(p), Y: p})
	}
	return pts
}

// Point is one (x, y) sample of a rendered series.
type Point struct{ X, Y float64 }
