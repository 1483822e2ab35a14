package timeline

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)

func TestCollectorBinningAndClamp(t *testing.T) {
	c := NewCollector(t0, 10*time.Minute, Config{})
	if got, want := len(c.bins), 11; got != want {
		t.Fatalf("bin count = %d, want %d", got, want)
	}
	c.ObserveAt(t0, Answered)
	c.ObserveAt(t0.Add(59*time.Second), Answered)
	c.ObserveAt(t0.Add(60*time.Second), Failed)
	c.ObserveAt(t0.Add(-time.Hour), ServFail)      // clamps to bin 0
	c.ObserveAt(t0.Add(24*time.Hour), StaleServed) // clamps to last bin
	tl := c.Finalize()
	if got := tl.Get(0, Answered); got != 2 {
		t.Errorf("bin0 answered = %d, want 2", got)
	}
	if got := tl.Get(1, Failed); got != 1 {
		t.Errorf("bin1 failed = %d, want 1", got)
	}
	if got := tl.Get(0, ServFail); got != 1 {
		t.Errorf("bin0 servfail (clamped early) = %d, want 1", got)
	}
	if got := tl.Get(10, StaleServed); got != 1 {
		t.Errorf("last-bin stale (clamped late) = %d, want 1", got)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.ObserveAt(t0, Answered) // must not panic
}

func TestMergeIsExactAndOrderIndependent(t *testing.T) {
	build := func(obs ...int) *Timeline {
		c := NewCollector(t0, 3*time.Minute, Config{})
		for _, m := range obs {
			c.ObserveAt(t0.Add(time.Duration(m)*time.Minute), Answered)
		}
		return c.Finalize()
	}
	a, b := build(0, 1, 1), build(1, 2)

	ab := build(0, 1, 1)
	ab.Merge(build(1, 2))
	ba := build(1, 2)
	ba.Merge(build(0, 1, 1))

	ja, _ := json.Marshal(ab)
	jb, _ := json.Marshal(ba)
	if string(ja) != string(jb) {
		t.Fatalf("merge order changed bytes:\n%s\n%s", ja, jb)
	}
	if ab.Get(1, Answered) != a.Get(1, Answered)+b.Get(1, Answered) {
		t.Errorf("merged bin1 = %d", ab.Get(1, Answered))
	}
	if ab.Total(Answered) != 5 {
		t.Errorf("merged total = %d, want 5", ab.Total(Answered))
	}
}

func TestMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a := NewCollector(t0, 2*time.Minute, Config{}).Finalize()
	b := NewCollector(t0, 5*time.Minute, Config{}).Finalize()
	a.Merge(b)
}

func TestAnswerRate(t *testing.T) {
	c := NewCollector(t0, 2*time.Minute, Config{})
	c.ObserveAt(t0, Answered)
	c.ObserveAt(t0, Answered)
	c.ObserveAt(t0, Failed)
	c.ObserveAt(t0, ServFail)
	tl := c.Finalize()
	rate, ok := tl.AnswerRate(0)
	if !ok || rate != 0.5 {
		t.Errorf("rate = %v ok=%v, want 0.5 true", rate, ok)
	}
	if _, ok := tl.AnswerRate(1); ok {
		t.Errorf("empty bucket reported a rate")
	}
	// Resolver-side metrics must not dilute the client answer rate.
	c.ObserveAt(t0, CacheHit)
	c.ObserveAt(t0, Retry)
	tl = c.Finalize()
	if rate, _ := tl.AnswerRate(0); rate != 0.5 {
		t.Errorf("rate after resolver-side observes = %v, want 0.5", rate)
	}
}

func TestRenderers(t *testing.T) {
	c := NewCollector(t0, 4*time.Minute, Config{})
	c.ObserveAt(t0.Add(1*time.Minute), Answered)
	c.ObserveAt(t0.Add(3*time.Minute), Failed)
	tl := c.Finalize()
	tl.Marks = []Mark{{At: 2 * time.Minute, Label: "attack start (90% loss)"}}

	table := tl.Table()
	if !strings.Contains(table, "answered") || !strings.Contains(table, "attack start") {
		t.Errorf("table missing header or mark:\n%s", table)
	}
	// Idle bucket 0 is skipped, bucket 1 is printed.
	if strings.Contains(table, "\n       0 ") {
		t.Errorf("idle bucket rendered:\n%s", table)
	}

	csv := tl.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+5 {
		t.Errorf("csv has %d lines, want header+5 buckets:\n%s", len(lines), csv)
	}
	if lines[0] != "minute,"+strings.Join(MetricNames(), ",") {
		t.Errorf("csv header = %q", lines[0])
	}

	spark := tl.Sparkline()
	if !strings.Contains(spark, "█") || !strings.Contains(spark, "▁") {
		t.Errorf("sparkline missing full/empty glyphs:\n%s", spark)
	}
	if !strings.Contains(spark, "^") {
		t.Errorf("sparkline missing mark row:\n%s", spark)
	}

	var buf strings.Builder
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Timeline
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Get(1, Answered) != 1 || len(back.Marks) != 1 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}
