package experiment

import (
	"strings"
	"testing"
)

// TestCheckAllClaimsPass is the repository's compact end-to-end
// reproduction gate: every paper claim must verify at test scale.
func TestCheckAllClaimsPass(t *testing.T) {
	results := mustRun(t, CheckScenario(), RunConfig{Probes: 200, Seed: 42}).Check
	if len(results) < 10 {
		t.Fatalf("only %d claims checked", len(results))
	}
	table, ok := RenderCheck(results)
	if !ok {
		t.Errorf("reproduction self-test failed:\n%s", table)
	}
	if !strings.Contains(table, "PASS") {
		t.Error("render missing verdicts")
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
