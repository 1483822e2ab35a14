package timeline

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)

func TestCollectorBinningAndClamp(t *testing.T) {
	tl := NewRun(t0, 10*time.Minute, Config{})
	if got, want := len(tl.Bins), 11; got != want {
		t.Fatalf("bin count = %d, want %d", got, want)
	}
	tl.Add(t0, Answered, 1)
	tl.Add(t0.Add(59*time.Second), Answered, 1)
	tl.Add(t0.Add(60*time.Second), Failed, 1)
	tl.Add(t0.Add(-time.Hour), ServFail, 1)      // clamps to bin 0
	tl.Add(t0.Add(24*time.Hour), StaleServed, 1) // clamps to last bin
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
	var tl *Timeline
	tl.Add(t0, Answered, 1) // must not panic
}

func TestMergeIsExactAndOrderIndependent(t *testing.T) {
	build := func(obs ...int) *Timeline {
		tl := NewRun(t0, 3*time.Minute, Config{})
		for _, m := range obs {
			tl.Add(t0.Add(time.Duration(m)*time.Minute), Answered, 1)
		}
		return tl
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
	a := NewRun(t0, 2*time.Minute, Config{})
	b := NewRun(t0, 5*time.Minute, Config{})
	a.Merge(b)
}

func TestAnswerRate(t *testing.T) {
	tl := NewRun(t0, 2*time.Minute, Config{})
	tl.Add(t0, Answered, 2)
	tl.Add(t0, Failed, 1)
	tl.Add(t0, ServFail, 1)
	rate, ok := tl.AnswerRate(0)
	if !ok || rate != 0.5 {
		t.Errorf("rate = %v ok=%v, want 0.5 true", rate, ok)
	}
	if _, ok := tl.AnswerRate(1); ok {
		t.Errorf("empty bucket reported a rate")
	}
	// Resolver-side metrics must not dilute the client answer rate.
	tl.Add(t0, CacheHit, 1)
	tl.Add(t0, Retry, 1)
	if rate, _ := tl.AnswerRate(0); rate != 0.5 {
		t.Errorf("rate after resolver-side observes = %v, want 0.5", rate)
	}
}

func TestRenderers(t *testing.T) {
	tl := NewRun(t0, 4*time.Minute, Config{})
	tl.Add(t0.Add(1*time.Minute), Answered, 1)
	tl.Add(t0.Add(3*time.Minute), Failed, 1)
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
	if lines[0] != "minute,"+strings.Join(metricNames[:], ",") {
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

// TestOutOfWindow pins the one out-of-window rule: BinOf reports an
// observation before the start as -1 and one past the last bin as its
// index beyond the grid, and Add clamps both into the edge bins, so the
// grid never grows and nothing is silently dropped.
func TestOutOfWindow(t *testing.T) {
	tl := New(t0, 10*time.Minute, 3, []string{"a", "b"})
	if got := tl.BinOf(t0.Add(-time.Nanosecond)); got != -1 {
		t.Errorf("BinOf(before start) = %d, want -1", got)
	}
	if got := tl.BinOf(t0.Add(35 * time.Minute)); got != 3 {
		t.Errorf("BinOf(after the last bin) = %d, want 3", got)
	}
	tl.Add(t0.Add(-time.Hour), 0, 1)
	tl.Add(t0.Add(29*time.Minute), 1, 1)
	tl.Add(t0.Add(24*time.Hour), 1, 5)
	if tl.Get(0, 0) != 1 || tl.Get(2, 1) != 6 || len(tl.Bins) != 3 {
		t.Errorf("bins = %v, want the early count in bin 0 and both late ones in bin 2", tl.Bins)
	}
}

// TestRoundTable covers a per-round figure: counts at the probe interval
// by time and by explicit round, Rounds as the last non-empty row + 1,
// and the table and CSV in the chosen column order.
func TestRoundTable(t *testing.T) {
	s := New(t0, 10*time.Minute, 6, []string{"OK", "SERVFAIL", "NoAnswer"})
	s.Add(t0.Add(5*time.Minute), 0, 1)
	s.Add(t0.Add(5*time.Minute), 0, 2)
	s.AddBin(2, 1, 4)
	if got := s.Get(0, 0); got != 3 {
		t.Errorf("round 0 OK = %d", got)
	}
	if got := s.Get(2, 1); got != 4 {
		t.Errorf("round 2 SERVFAIL = %d", got)
	}
	if s.Rounds() != 3 {
		t.Errorf("rounds = %d, want 3", s.Rounds())
	}
	want := "  minute           OK     SERVFAIL\n" +
		"       0            3            0\n" +
		"      10            0            0\n" +
		"      20            0            4\n"
	if got := s.RoundTable(0, 1); got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
	if got, want := s.RoundCSV(1, 0), "minute,SERVFAIL,OK\n0,0,3\n10,0,0\n20,4,0\n"; got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	if New(t0, time.Minute, 4, []string{"x"}).Rounds() != 0 {
		t.Error("an empty grid has rounds")
	}
}

// TestMergedEqualsWhole: a merged timeline must equal the timeline built
// from the union of observations, for any split.
func TestMergedEqualsWhole(t *testing.T) {
	cols := []string{"OK", "SERVFAIL", "NoAnswer"}
	grid := func() *Timeline { return New(t0, 10*time.Minute, 13, cols) }
	whole, a, b := grid(), grid(), grid()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		round, col := rng.Intn(12), rng.Intn(len(cols))
		whole.AddBin(round, col, 1)
		if rng.Intn(2) == 0 {
			a.AddBin(round, col, 1)
		} else {
			b.AddBin(round, col, 1)
		}
	}
	merged := grid()
	merged.Merge(b)
	merged.Merge(a)
	if merged.RoundTable(0, 1, 2) != whole.RoundTable(0, 1, 2) {
		t.Fatalf("merged timeline differs from whole:\n%s\nvs\n%s",
			merged.RoundTable(0, 1, 2), whole.RoundTable(0, 1, 2))
	}
	if merged.Rounds() != whole.Rounds() {
		t.Fatalf("Rounds = %d, want %d", merged.Rounds(), whole.Rounds())
	}
}
