package passive

import (
	"testing"
	"time"
)

var start = time.Date(2018, 2, 22, 12, 0, 0, 0, time.UTC)

func TestAnalyzeInterarrivals(t *testing.T) {
	var events []QueryEvent
	// Source "hourly": 7 queries, one per hour.
	for i := 0; i < 7; i++ {
		events = append(events, QueryEvent{At: start.Add(time.Duration(i) * time.Hour), Src: "hourly"})
	}
	// Source "burst": 6 queries 2 s apart (excluded as parallel).
	for i := 0; i < 6; i++ {
		events = append(events, QueryEvent{At: start.Add(time.Duration(i) * 2 * time.Second), Src: "burst"})
	}
	// Source "sparse": below the minQueries threshold.
	events = append(events, QueryEvent{At: start, Src: "sparse"})

	a := AnalyzeInterarrivals(events, 5, 10*time.Second)
	if a.Considered != 2 {
		t.Fatalf("considered = %d, want 2", a.Considered)
	}
	// The burst source's sub-10s deltas are all excluded, leaving only
	// the hourly source's median.
	if len(a.Medians) != 1 || a.Medians[0] != 3600 {
		t.Fatalf("medians = %v", a.Medians)
	}
	// 5 of the 11 total inter-arrivals were closely timed.
	if a.Excluded != 5 || a.Gaps != 11 {
		t.Errorf("excluded %d of %d gaps, want 5 of 11", a.Excluded, a.Gaps)
	}
}

func TestRunRootShape(t *testing.T) {
	res := RunRoot(2)
	// ~87% of recursives send a single query in the day.
	if res.FracSingleObserved < 0.82 || res.FracSingleObserved > 0.92 {
		t.Errorf("single-query frac = %.3f, want ~0.87", res.FracSingleObserved)
	}
	// The tail is heavy: hundreds-to-thousands of queries from one
	// source.
	if res.MaxObserved < 100 {
		t.Errorf("max = %d, want a heavy tail", res.MaxObserved)
	}
	if len(res.PerLetter) != 13 {
		t.Fatalf("letters = %d", len(res.PerLetter))
	}
	// The per-letter "5+ queries" fractions are sorted; the spread
	// between friendliest and worst letters should be visible (paper:
	// ~5% at F vs ~10%+ at H).
	lo := res.FracAtLeast5PerLetter[0]
	hi := res.FracAtLeast5PerLetter[len(res.FracAtLeast5PerLetter)-1]
	if hi <= lo {
		t.Errorf("no per-letter spread: lo=%.3f hi=%.3f", lo, hi)
	}
	// The aggregate CDF at 1 query is below the per-letter fraction
	// (multi-letter spreading reduces per-letter counts).
	if got := res.All.At(1); got < 0.8 || got > 0.95 {
		t.Errorf("All.At(1) = %.3f", got)
	}
}

func TestRunRootDeterministic(t *testing.T) {
	a, b := RunRoot(5), RunRoot(5)
	if a.MaxObserved != b.MaxObserved || a.FracSingleObserved != b.FracSingleObserved {
		t.Error("same seed, different outcomes")
	}
}
