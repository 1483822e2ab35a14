package experiment

import (
	"context"
	"testing"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// Replicate runs metric across n different seeds (baseSeed + i*1000) and
// summarizes the distribution — the robustness tests' answer to "is this
// result an artifact of one seed?". The seeds fan out across cores, so
// metric must be safe to call from multiple goroutines at once (the
// experiment runners are: each run builds its own world from the seed).
func Replicate(n int, baseSeed int64, metric func(seed int64) float64) stats.Summary {
	values := make([]float64, n)
	_ = parallel.ForEachCtx(context.Background(), 0, n, func(i int) { // Background never cancels
		values[i] = metric(baseSeed + int64(i)*1000)
	})
	return stats.Summarize(values)
}

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
