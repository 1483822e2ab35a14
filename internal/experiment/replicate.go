package experiment

import (
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Replicate runs metric across n different seeds (baseSeed + i*1000,
// the stride the robustness suite has always used) and summarizes the
// distribution — the harness's answer to "is this result an artifact of
// one seed?". The seeds fan out across cores, so metric must be safe to
// call from multiple goroutines at once (the experiment runners are: each
// run builds its own world from the seed). Used by the robustness tests
// and the BenchmarkReplicationVariance target.
func Replicate(n int, baseSeed int64, metric func(seed int64) float64) stats.Summary {
	values := make([]float64, n)
	parallel.ForEach(0, n, func(i int) {
		values[i] = metric(baseSeed + int64(i)*1000)
	})
	return stats.Summarize(values)
}
