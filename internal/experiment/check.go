package experiment

import (
	"fmt"
	"strings"
	"time"
)

// The reproduction self-test (`dikes check`) is a report over the paper
// campaign: Scorecard reads the paper's headline claims off the results
// of the runs examples/specs/paper already describes and holds each to a
// qualitative band derived from the paper. It runs nothing itself.

// CheckResult is one verified claim.
type CheckResult struct {
	Claim    string
	Paper    string
	Measured string
	Pass     bool
}

// Scorecard scores the paper's eleven headline claims against a
// campaign's results. Source runs are found by content, not by name or
// position: the 20-minute caching runs by TTL, the attack runs by
// experiment letter, the retry, glue and implications runs by family. A
// claim whose source run is absent, failed or cancelled reads "not run"
// and does not pass.
func Scorecard(results []CampaignResult) []CheckResult {
	caching := map[uint32]*CachingResult{} // 20-minute probing, by zone TTL
	attack := map[string]*DDoSResult{}     // by experiment letter
	bind := map[bool]RetryRow{}            // BIND-like rows, by "servers down"
	var glue *GlueResult
	var impl *ImplicationsResult
	for _, r := range results {
		o := r.Outcome
		switch {
		case r.Err != nil || o == nil:
		case o.Caching != nil && o.Caching.Config.ProbeInterval == 20*time.Minute:
			caching[o.Caching.Config.TTL] = o.Caching
		case o.DDoS != nil:
			attack[o.DDoS.Spec.Name] = o.DDoS
		case o.Retries != nil:
			for _, row := range o.Retries.Rows {
				if row.Profile == retryProfiles[0] {
					bind[row.Down] = row
				}
			}
		case o.Glue != nil:
			glue = o.Glue
		case o.Implications != nil:
			impl = o.Implications
		}
	}

	var res []CheckResult
	// add scores one claim; measure runs only when every source run it
	// reads is present.
	add := func(claim, paper string, ran bool, measure func() (measured string, pass bool)) {
		row := CheckResult{Claim: claim, Paper: paper, Measured: "not run"}
		if ran {
			row.Measured, row.Pass = measure()
		}
		res = append(res, row)
	}
	warm, short, day := caching[3600], caching[60], caching[86400]
	resE, resH, resI, resA := attack["E"], attack["H"], attack["I"], attack["A"]

	// §3: warm-cache miss rate ~30%.
	add("warm-cache miss rate (TTL 3600)", "28.5-32.9%", warm != nil, func() (string, bool) {
		return fmt.Sprintf("%.1f%%", 100*warm.MissRate),
			warm.MissRate > 0.18 && warm.MissRate < 0.42
	})

	// §3: short TTLs never hit the cache at 20-minute probing.
	add("TTL 60 @ 20min probing: all fresh (AA)", "~100%", short != nil, func() (string, bool) {
		t2 := short.Table2
		aaShare := ratio(float64(t2.AA), float64(t2.AA+t2.CC+t2.AC+t2.CA))
		return fmt.Sprintf("%.1f%%", 100*aaShare), aaShare > 0.9
	})

	// §3.4: day-long TTLs are truncated for ~30% of VPs.
	add("TTL truncation at 1-day TTLs", "~30%", day != nil, func() (string, bool) {
		t2 := day.Table2
		trunc := ratio(float64(t2.WarmupTTLAltered), float64(t2.WarmupTTLZone+t2.WarmupTTLAltered))
		return fmt.Sprintf("%.1f%%", 100*trunc), trunc > 0.15 && trunc < 0.5
	})

	// §5: Experiment E — 50% loss barely hurts.
	add("exp E (50% loss): failure increase small", "+3.7pp", resE != nil, func() (string, bool) {
		delta := resE.FailureRate(9) - resE.FailureRate(4)
		return fmt.Sprintf("+%.1fpp", 100*delta), delta >= 0 && delta < 0.15
	})

	// §5: Experiment H — ~60% still served at 90% loss with 30-min TTLs.
	add("exp H (90% loss, TTL 1800): still served", "~60%", resH != nil, func() (string, bool) {
		served := 1 - resH.FailureRate(9)
		return fmt.Sprintf("%.1f%%", 100*served), served > 0.45 && served < 0.85
	})

	// And the cache's value: exp I (TTL 60) fares clearly worse.
	add("exp I (90% loss, TTL 60): served less than H", "~37-40%", resH != nil && resI != nil, func() (string, bool) {
		served, servedI := 1-resH.FailureRate(9), 1-resI.FailureRate(9)
		return fmt.Sprintf("%.1f%%", 100*servedI),
			servedI > 0.2 && servedI < 0.6 && servedI < served
	})

	// §5.2: Experiment A — near-total failure after caches expire.
	add("exp A: cache cliff at TTL expiry", "partial, then ~100% fail", resA != nil, func() (string, bool) {
		late := resA.FailureRate(9)
		early := resA.FailureRate(3)
		return fmt.Sprintf("%.0f%% -> %.0f%%", 100*early, 100*late),
			early < 0.6 && late > 0.85
	})

	// §6: traffic amplification at the authoritatives under 90% loss.
	add("legit traffic multiplier under 90% loss", "up to 8.2x", resI != nil, func() (string, bool) {
		mult := ratio(resI.AuthQueries.Get(9, "AAAA-for-PID"), resI.AuthQueries.Get(4, "AAAA-for-PID"))
		return fmt.Sprintf("%.1fx", mult), mult > 2 && mult < 15
	})

	// §6.2: software retry amplification.
	add("BIND-like retries during failure", "3 -> 12 queries (4x)", len(bind) == 2, func() (string, bool) {
		up, down := bind[false].total(), bind[true].total()
		bmult := down / up
		return fmt.Sprintf("%.0f -> %.0f (%.1fx)", up, down, bmult),
			up <= 4 && bmult > 2 && bmult < 8
	})

	// Appendix A: the child's TTL wins.
	add("answers carry the child-side TTL", "~95%", glue != nil, func() (string, bool) {
		return fmt.Sprintf("%.1f%%", 100*glue.NS.AuthoritativeShare()),
			glue.NS.AuthoritativeShare() > 0.85
	})

	// §8: root-like rides it out, CDN-like suffers.
	add("root-like vs CDN-like failure under attack", "≈0% vs visible", impl != nil, func() (string, bool) {
		root, cdn := impl.RootFailDuringAttack(), impl.CDNFailDuringAttack()
		return fmt.Sprintf("%.1f%% vs %.1f%%", 100*root, 100*cdn), root < 0.05 && cdn > 0.05
	})
	return res
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
