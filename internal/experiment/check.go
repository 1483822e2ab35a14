package experiment

import (
	"fmt"
	"strings"
)

// CheckScenario (scenario.go) runs a scaled-down version of every
// headline experiment and compares the results against qualitative bands
// derived from the paper. It is the repository's one-shot reproduction
// self-test (`dikes check`).

// CheckResult is one verified claim.
type CheckResult struct {
	Claim    string
	Paper    string
	Measured string
	Pass     bool
}

// RenderCheck prints the verification table and returns true when every
// claim passed.
func RenderCheck(results []CheckResult) (string, bool) {
	var sb strings.Builder
	allPass := true
	fmt.Fprintf(&sb, "%-48s %-28s %-22s %s\n", "claim", "paper", "measured", "verdict")
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			allPass = false
		}
		fmt.Fprintf(&sb, "%-48s %-28s %-22s %s\n", r.Claim, r.Paper, r.Measured, verdict)
	}
	return sb.String(), allPass
}
