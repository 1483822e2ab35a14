// Scale harness for the sharded streaming engine: an env-gated smoke
// test with a peak-RSS ceiling (the CI scale job) and a benchmark that
// reports peak RSS and probe throughput as custom metrics. Both run one
// configuration per process, because VmHWM is a process-lifetime
// high-water mark — mixing configurations in one process would attribute
// the largest run's peak to every run.
package dikes_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	dikes "repro"
)

// scaleSpec is the attack the scale harness emulates: the paper's
// experiment H (TTL 1800, 90% loss) — the configuration the 1M-VP
// acceptance run uses.
func scaleSpec(tb testing.TB) dikes.DDoSSpec {
	spec, ok := dikes.SpecByName("H")
	if !ok {
		tb.Fatal("spec H missing")
	}
	return spec
}

// envInt reads an integer knob with a default.
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// peakRSSMB reads the process peak resident set (VmHWM) in MiB.
// Returns 0 on platforms without /proc.
func peakRSSMB() float64 {
	if runtime.GOOS != "linux" {
		return 0
	}
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runScale executes one sharded spec-H run and returns the result plus
// wall time.
func runScale(tb testing.TB, probes, shards, shardProbes int) (*dikes.Outcome, time.Duration) {
	tb.Helper()
	start := time.Now()
	out, err := dikes.Run(context.Background(), dikes.DDoSScenario(scaleSpec(tb)), dikes.RunConfig{
		Probes: probes, Seed: 42, Shards: shards, ShardProbes: shardProbes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out, time.Since(start)
}

// TestScaleSmoke is the CI scale gate. Enable with SCALE_SMOKE=1; tune
// with SCALE_PROBES / SCALE_SHARDS / SCALE_SHARD_PROBES, and enforce a
// peak-RSS ceiling (MiB) with SCALE_RSS_MB (0 disables the ceiling).
// The Makefile's default ceiling is 768 MiB for the 100k/4-shard race
// run, which peaked at 475 and 513 MiB in two runs (485 with 712-byte
// resolvers and 48-byte answers; 2 vCPUs, go 1.24); for calibration, the
// timing-wheel engine peaks at ~2.9 GiB on a 10^6-probe 8-shard run
// without the race detector.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") != "1" {
		t.Skip("set SCALE_SMOKE=1 to run the scale smoke test")
	}
	probes := envInt("SCALE_PROBES", 100_000)
	shards := envInt("SCALE_SHARDS", 4)
	shardProbes := envInt("SCALE_SHARD_PROBES", 0)
	ceiling := envInt("SCALE_RSS_MB", 0)

	out, wall := runScale(t, probes, shards, shardProbes)
	if out.Report == nil {
		t.Fatal("no run report")
	}
	if !out.Report.OK() {
		t.Fatalf("invariants failed at scale: %+v", out.Report.FailedInvariants())
	}
	if got := out.DDoS.Table4.Probes; got != probes {
		t.Fatalf("run covered %d probes, want %d", got, probes)
	}
	rss := peakRSSMB()
	t.Logf("probes=%d shards=%d shard_probes=%d wall=%v peak_rss=%.0fMiB",
		probes, shards, shardProbes, wall.Round(time.Second), rss)
	if ceiling > 0 && rss > float64(ceiling) {
		t.Fatalf("peak RSS %.0f MiB exceeds ceiling %d MiB", rss, ceiling)
	}
}

// BenchmarkScaleShards runs one sharded spec-H configuration (from
// SCALE_PROBES / SCALE_SHARDS, small defaults otherwise) and reports
// peak RSS and probe throughput. Run with -benchtime=1x; one
// configuration per process for a meaningful peak_rss_mb.
func BenchmarkScaleShards(b *testing.B) {
	probes := envInt("SCALE_PROBES", 6_000)
	shards := envInt("SCALE_SHARDS", 4)
	shardProbes := envInt("SCALE_SHARD_PROBES", 0)
	b.Run(fmt.Sprintf("probes=%d/shards=%d", probes, shards), func(b *testing.B) {
		var wall time.Duration
		for i := 0; i < b.N; i++ {
			_, w := runScale(b, probes, shards, shardProbes)
			wall = w
		}
		b.ReportMetric(peakRSSMB(), "peak_rss_mb")
		if s := wall.Seconds(); s > 0 {
			b.ReportMetric(float64(probes)/s, "vps")
		}
	})
}
