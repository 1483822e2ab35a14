// Package timeline is the one container for counts binned by simulated
// time: the run timeline (per-bucket client answers, failures,
// SERVFAILs, stale serves, cache hits, upstream retries, TCP fallbacks
// and upstream timeouts, annotated with the attack-phase boundaries) and
// every per-round figure of the experiments (answers, answer classes and
// authoritative queries per probing round, Figure 13's answer types,
// the §8 per-minute outcomes). The paper's headline figures are exactly
// such series, and whole-run aggregates cannot regenerate them.
//
// A Timeline's shape is fixed at construction from (start, bin width,
// bin count, columns), never from the data, so every cell of a sharded
// run allocates the same grid and the cross-cell Merge is an
// element-wise integer sum — commutative, associative, and therefore
// byte-identical for any shard count, like every other accumulator in
// internal/experiment. Columns are a small per-family enum: column c of
// a bin is Bins[i][c], named Metrics[c].
package timeline

import (
	"time"
)

// The run timeline's columns: the engine-wide series every family's
// cells count into when RunConfig.Timeline is set.
const (
	// Answered counts client queries answered with valid data, binned at
	// the simulated answer arrival time.
	Answered = iota
	// Failed counts client queries that timed out (no answer), binned at
	// the time the client gave up.
	Failed
	// ServFail counts client queries answered but not usable (SERVFAIL or
	// discarded data).
	ServFail
	// StaleServed counts resolver answers served from expired cache
	// entries (the §5.3 serve-stale mitigation firing).
	StaleServed
	// CacheHit counts resolver client answers served from fresh cache.
	CacheHit
	// Retry counts upstream retransmissions (the §6.2 retry
	// amplification, over time).
	Retry
	// TCPFallback counts TC=1-triggered TCP retries (the DoTCP family's
	// responsiveness signal).
	TCPFallback
	// UpstreamTimeout counts upstream queries that timed out at the
	// resolver.
	UpstreamTimeout

	// NumMetrics is the run timeline's column count.
	NumMetrics
)

// metricNames are the run timeline's stable exposition names, indexed
// by column.
var metricNames = [NumMetrics]string{
	"answered", "failed", "servfail", "stale_served",
	"cache_hit", "retries", "tcp_fallback", "upstream_timeouts",
}

// DefaultBucket is the paper's figure resolution.
const DefaultBucket = time.Minute

// Config sizes a run's timeline collection.
type Config struct {
	// Bucket is the simulated-time bin width (default one minute, the
	// paper's figure resolution).
	Bucket time.Duration
}

// Mark is one attack-phase boundary annotation, at an offset from the
// run start.
type Mark struct {
	At    time.Duration `json:"at"`
	Label string        `json:"label"`
}

// Timeline is a fixed grid of counts: Bins[i][c] counts the events of
// column c in the i-th Bucket-wide bin from the start. Metrics names the
// columns for consumers that only see the JSON. Marks carry a run's
// disruption boundaries; they describe the spec, not the data, so Merge
// leaves them alone. A cell's simulator goroutine is its only writer,
// so plain integers suffice.
type Timeline struct {
	Bucket  time.Duration `json:"bucket"`
	Metrics []string      `json:"metrics"`
	Bins    [][]int64     `json:"bins"`
	Marks   []Mark        `json:"marks,omitempty"`
	start   time.Time
}

// New builds an all-zero timeline of n bins of width bucket from start,
// one column per name (n < 1 is one bin).
func New(start time.Time, bucket time.Duration, n int, columns []string) *Timeline {
	n = max(n, 1)
	w := len(columns)
	cells := make([]int64, n*w)
	t := &Timeline{Bucket: bucket, Metrics: columns, Bins: make([][]int64, n), start: start}
	for i := range t.Bins {
		t.Bins[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return t
}

// NewRun builds a run timeline covering [start, start+horizon] in
// cfg.Bucket-wide bins (default DefaultBucket). Every cell of a run
// derives the same grid from the same arguments.
func NewRun(start time.Time, horizon time.Duration, cfg Config) *Timeline {
	if cfg.Bucket <= 0 {
		cfg.Bucket = DefaultBucket
	}
	return New(start, cfg.Bucket, int(horizon/cfg.Bucket)+1, metricNames[:])
}

// BinOf returns the index of the bin holding at: -1 before the start,
// and len(Bins) or more after the last bin.
func (t *Timeline) BinOf(at time.Time) int {
	if at.Before(t.start) {
		return -1
	}
	return int(at.Sub(t.start) / t.Bucket)
}

// Add counts n events of column col at simulated time at. An
// observation outside the window clamps to the first or last bin, so a
// late answer can never grow the grid. Safe on a nil timeline
// (collection off).
func (t *Timeline) Add(at time.Time, col int, n int64) {
	if t == nil {
		return
	}
	t.Bins[min(max(t.BinOf(at), 0), len(t.Bins)-1)][col] += n
}

// AddBin counts n events of column col in bin i.
func (t *Timeline) AddBin(i, col int, n int64) { t.Bins[i][col] += n }

// Merge folds another cell's timeline into t, element-wise. Cells of one
// run share the grid by construction; a shape mismatch is a programming
// error and panics.
func (t *Timeline) Merge(o *Timeline) {
	if o == nil {
		return
	}
	if t.Bucket != o.Bucket || len(t.Bins) != len(o.Bins) || len(t.Metrics) != len(o.Metrics) {
		panic("timeline: merging timelines of different shapes")
	}
	for i := range t.Bins {
		for j := range t.Bins[i] {
			t.Bins[i][j] += o.Bins[i][j]
		}
	}
}

// Get returns the count of column col in bin i (0 when out of range).
func (t *Timeline) Get(i, col int) int64 {
	if i < 0 || i >= len(t.Bins) || col >= len(t.Bins[i]) {
		return 0
	}
	return t.Bins[i][col]
}

// Total sums column col over every bin.
func (t *Timeline) Total(col int) int64 {
	var sum int64
	for i := range t.Bins {
		sum += t.Get(i, col)
	}
	return sum
}

// Rounds returns the index of the last bin with a non-zero count, plus
// one (0 when every bin is empty): the rows a per-round figure prints.
func (t *Timeline) Rounds() int {
	for i := len(t.Bins) - 1; i >= 0; i-- {
		if !rowEmpty(t.Bins[i]) {
			return i + 1
		}
	}
	return 0
}

func rowEmpty(row []int64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// AnswerRate returns answered/(answered+failed+servfail) for bin i of a
// run timeline, and false when the bin saw no client outcomes at all.
func (t *Timeline) AnswerRate(i int) (float64, bool) {
	a := t.Get(i, Answered)
	total := a + t.Get(i, Failed) + t.Get(i, ServFail)
	if total == 0 {
		return 0, false
	}
	return float64(a) / float64(total), true
}
