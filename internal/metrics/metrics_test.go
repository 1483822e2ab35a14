package metrics

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestHistogramBinning(t *testing.T) {
	var h Histogram
	h.Init([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 99, 100, 101, 1e6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Upper-inclusive edges: [<=1, <=10, <=100, overflow].
	want := []int64{2, 2, 3, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if s.Sum < 1e6 {
		t.Errorf("sum = %v, want > 1e6", s.Sum)
	}
}

// TestHistogramMerge: Scope.Observe folds live histograms bin-wise, never
// aliases the observed Counts, and refuses a different bucket layout.
func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Init(DefaultLatencyBucketsMs)
	b.Init(DefaultLatencyBucketsMs)
	a.Observe(3)
	b.Observe(3)
	b.Observe(700)
	first := a.Snapshot()
	r := NewRegistry()
	r.Scope("s").Observe("h", first)
	r.Scope("s").Observe("h", b.Snapshot())
	got := r.Snapshot().Scope("s").Histograms["h"]
	if got.Count != 3 || got.Sum != 706 || got.Counts[2] != 2 || got.Counts[9] != 1 {
		t.Errorf("merged = %+v, want count 3, sum 706, bins [..2..1..]", got)
	}
	if first.Counts[2] != 1 {
		t.Errorf("Observe mutated its argument: %v", first.Counts)
	}
	defer func() {
		if recover() == nil {
			t.Error("Observe accepted different bounds under one name")
		}
	}()
	var c Histogram
	c.Init([]float64{1, 2})
	r.Scope("s").Observe("h", c.Snapshot())
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	h.Init([]float64{10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot(); got.Count != 8000 || got.Sum != 8000 || got.Counts[0] != 8000 {
		t.Errorf("snapshot = %+v, want count, sum and first bin 8000", got)
	}
}

// TestHotPathAllocationFree pins the tentpole's performance contract: with
// no report sink attached (i.e. just incrementing embedded metrics), the
// instrument operations allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	var c Counter
	var h Histogram
	h.Init(DefaultLatencyBucketsMs)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12.5) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Scope("zulu").Add("b", 2)
		r.Scope("alpha").Add("a", 1)
		var h Histogram
		h.Init(DefaultLatencyBucketsMs)
		h.Observe(5)
		r.Scope("alpha").Observe("h", h.Snapshot())
		return r.Snapshot()
	}
	a, b := build(), build()
	if a.Scopes[0].Name != "alpha" || a.Scopes[1].Name != "zulu" {
		t.Errorf("scopes not sorted: %v, %v", a.Scopes[0].Name, a.Scopes[1].Name)
	}
	ja := marshal(t, &Report{Name: "x", Metrics: a})
	jb := marshal(t, &Report{Name: "x", Metrics: b})
	if !bytes.Equal(ja, jb) {
		t.Errorf("identical registries marshal differently:\n%s\nvs\n%s", ja, jb)
	}
}

// TestRegistryMergeEqualsOneRegistry: folding K per-cell snapshots with
// Merge gives the document that collecting the same components into one
// registry gives — counters, histogram bins, zero-valued counters and
// empty scopes included.
func TestRegistryMergeEqualsOneRegistry(t *testing.T) {
	collect := func(r *Registry, cell int) {
		var h Histogram
		h.Init(DefaultLatencyBucketsMs)
		for i := 0; i <= cell; i++ {
			h.Observe(float64(3 * (cell + i)))
		}
		rs := r.Scope("resolver")
		rs.Add("client_queries", int64(10+cell))
		rs.Add("timeouts", 0)
		rs.Observe("upstream_rtt_ms", h.Snapshot())
		r.Scope("adversary")
		if cell%2 == 1 {
			r.Scope("odd-cells-only").Add("n", 1)
		}
	}
	one, merged := NewRegistry(), NewRegistry()
	for cell := 0; cell < 5; cell++ {
		collect(one, cell)
		per := NewRegistry()
		collect(per, cell)
		merged.Merge(per.Snapshot())
	}
	ja := marshal(t, &Report{Name: "x", Metrics: one.Snapshot()})
	jb := marshal(t, &Report{Name: "x", Metrics: merged.Snapshot()})
	if !bytes.Equal(ja, jb) {
		t.Errorf("merged cells differ from one registry:\n%s\nvs\n%s", jb, ja)
	}
	if got := merged.Snapshot().Scope("resolver"); got.Counter("client_queries") != 60 ||
		got.Histograms["upstream_rtt_ms"].Count != 15 {
		t.Errorf("merged resolver scope = %+v", got)
	}
}

func marshal(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestInvariants(t *testing.T) {
	ok := EqualInt("eq", 5, 5, "a", "b")
	if !ok.OK {
		t.Errorf("EqualInt(5,5) not OK")
	}
	bad := EqualInt("eq", 5, 6, "a", "b")
	if bad.OK {
		t.Errorf("EqualInt(5,6) OK")
	}
	if bad.Detail != "a=5 b=6" {
		t.Errorf("detail = %q", bad.Detail)
	}
	if !AtLeastInt("ge", 6, 5, "a", "b").OK || AtLeastInt("ge", 4, 5, "a", "b").OK {
		t.Errorf("AtLeastInt wrong")
	}
	if AllOK([]Invariant{ok, bad}) {
		t.Errorf("AllOK with a failed invariant")
	}
	r := &Report{Invariants: []Invariant{ok, bad}}
	if r.OK() {
		t.Errorf("report OK with failed invariant")
	}
	if got := r.FailedInvariants(); len(got) != 1 || got[0].Detail != "a=5 b=6" {
		t.Errorf("FailedInvariants = %+v", got)
	}
}
