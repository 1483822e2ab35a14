package experiment

import (
	"errors"
	"strings"
	"testing"
)

// TestScorecardWithoutRuns: a row whose source run is missing reads "not
// run" and yields a not-run line, never a dropped row or a nil
// dereference. (The scorecard over the real paper campaign is pinned by
// spec.TestScorecardOverPaperCampaign.)
func TestScorecardWithoutRuns(t *testing.T) {
	table, notRun := Scorecard(nil)
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(lines) != 1+len(paperValues) || len(notRun) != len(paperValues) {
		t.Fatalf("%d table lines and %d not-run lines for %d paper rows:\n%s", len(lines), len(notRun), len(paperValues), table)
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "not run") {
			t.Errorf("row reads a missing run: %s", l)
		}
	}
}

// TestScorecardIgnoresFailedRuns: a failed or cancelled run's partial
// Outcome is not evidence; its rows read "not run" while the rows of the
// runs that finished are read.
func TestScorecardIgnoresFailedRuns(t *testing.T) {
	glue := mustRun(t, GlueScenario(), RunConfig{Probes: 40, Seed: 42})
	results := []CampaignResult{
		{Item: CampaignItem{Scenario: GlueScenario()}, Outcome: glue, Err: errors.New("boom")},
		{Item: CampaignItem{Scenario: ImplicationsScenario()}, Outcome: &Outcome{Implications: &ImplicationsResult{RootOK: 9, RootFail: 1}}},
	}
	table, notRun := Scorecard(results)
	if len(notRun) != len(paperValues)-1 {
		t.Errorf("%d not-run lines, want all but the implications row:\n%s", len(notRun), table)
	}
	// The last row, §8, reads the implications run: paper 0%, measured
	// 10%, 10 points off, no relative error over a paper value of 0.
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	last := strings.Fields(lines[len(lines)-1])
	if got := strings.Join(last[len(last)-4:], " "); got != "0% 10.0% 10.0 —" {
		t.Errorf("implications row reads %q:\n%s", got, table)
	}
	results[0].Err = nil
	if _, notRun := Scorecard(results); len(notRun) != len(paperValues)-2 {
		t.Errorf("glue row not read once its run succeeded: %v", notRun)
	}
}

// TestPaperError holds the one error rule: the distance to the nearest
// point of the paper's value or range, and the bound it is measured from.
func TestPaperError(t *testing.T) {
	for _, tc := range []struct {
		name               string
		v, lo, hi          float64
		wantDist, wantFrom float64
	}{
		{"point", 75.5, 60, 60, 15.5, 60},
		{"inside a range", 38, 37, 40, 0, 37},
		{"below a range", 2, 5, 8, 3, 5},
		{"above a range", 11, 5, 8, 3, 8},
		{"paper value 0", 1.5, 0, 0, 1.5, 0},
	} {
		if dist, from := paperError(tc.v, tc.lo, tc.hi); dist != tc.wantDist || from != tc.wantFrom {
			t.Errorf("%s: paperError(%g, %g, %g) = %g from %g, want %g from %g",
				tc.name, tc.v, tc.lo, tc.hi, dist, from, tc.wantDist, tc.wantFrom)
		}
	}
}
