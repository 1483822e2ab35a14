package experiment

import (
	"errors"
	"strings"
	"testing"
)

// TestScorecardWithoutRuns: a claim whose source run is missing is a
// failed row reading "not run", never a dropped row or a nil dereference.
// (The all-claims-pass gate over the real paper campaign is
// spec.TestScorecardOverPaperCampaign.)
func TestScorecardWithoutRuns(t *testing.T) {
	rows := Scorecard(nil)
	if len(rows) != 11 {
		t.Fatalf("%d rows, want the 11 claims", len(rows))
	}
	for _, r := range rows {
		if r.Measured != "not run" || r.Pass {
			t.Errorf("%s: measured %q pass %t, want an un-run failure", r.Claim, r.Measured, r.Pass)
		}
	}
}

// TestScorecardIgnoresFailedRuns: a failed or cancelled run's partial
// Outcome is not evidence; its claims read "not run" while the claims of
// the runs that finished are scored.
func TestScorecardIgnoresFailedRuns(t *testing.T) {
	glue := mustRun(t, GlueScenario(), RunConfig{Probes: 40, Seed: 42})
	results := []CampaignResult{
		{Outcome: glue, Err: errors.New("boom")},
		{Outcome: &Outcome{Implications: &ImplicationsResult{RootOK: 10, CDNOK: 9, CDNFail: 1}}},
	}
	for _, r := range Scorecard(results) {
		switch {
		case strings.HasPrefix(r.Claim, "root-like"):
			if !r.Pass || r.Measured != "0.0% vs 10.0%" {
				t.Errorf("%s: %q pass %t, want the finished run scored", r.Claim, r.Measured, r.Pass)
			}
		case r.Measured != "not run" || r.Pass:
			t.Errorf("%s: %q pass %t, want not run (its run failed or is absent)", r.Claim, r.Measured, r.Pass)
		}
	}
	results[0].Err = nil
	if r := Scorecard(results)[9]; r.Measured == "not run" {
		t.Errorf("%s: not scored once its run succeeded", r.Claim)
	}
}

func TestRenderCheckReportsFailure(t *testing.T) {
	table, ok := RenderCheck([]CheckResult{
		{Claim: "x", Paper: "1", Measured: "2", Pass: false},
	})
	if ok || !strings.Contains(table, "FAIL") {
		t.Errorf("failure not reported: %s", table)
	}
}
