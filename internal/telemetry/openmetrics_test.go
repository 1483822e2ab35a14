package telemetry

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestWriteOpenMetricsGolden pins the full exposition for a registry
// exercising every family type, label escaping, and histogram bucket
// cumulativity.
func TestWriteOpenMetricsGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := reg.Scope("resolver")
	sc.Add("cache_hits", 41)
	sc.Add("cache_hits", 1)
	var h metrics.Histogram
	h.Init([]float64{10, 100})
	h.Observe(5)   // first bin
	h.Observe(50)  // second bin
	h.Observe(500) // overflow bin
	sc.Observe("rtt_ms", h.Snapshot())
	reg.Scope("auth-srv").Add("weird name!", 1)

	var b strings.Builder
	err := WriteOpenMetrics(&b, reg.Snapshot(), map[string]string{
		"exp":  `H "quoted" back\slash`,
		"line": "a\nb",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# TYPE dikes_auth_srv_weird_name_ counter
dikes_auth_srv_weird_name__total{exp="H \"quoted\" back\\slash",line="a\nb"} 1
# TYPE dikes_resolver_cache_hits counter
dikes_resolver_cache_hits_total{exp="H \"quoted\" back\\slash",line="a\nb"} 42
# TYPE dikes_resolver_rtt_ms histogram
dikes_resolver_rtt_ms_bucket{exp="H \"quoted\" back\\slash",line="a\nb",le="10"} 1
dikes_resolver_rtt_ms_bucket{exp="H \"quoted\" back\\slash",line="a\nb",le="100"} 2
dikes_resolver_rtt_ms_bucket{exp="H \"quoted\" back\\slash",line="a\nb",le="+Inf"} 3
dikes_resolver_rtt_ms_sum{exp="H \"quoted\" back\\slash",line="a\nb"} 555
dikes_resolver_rtt_ms_count{exp="H \"quoted\" back\\slash",line="a\nb"} 3
# EOF
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteOpenMetricsNoLabels covers the unlabeled path and the
// cumulativity invariant le="+Inf" == _count on a merged snapshot.
func TestWriteOpenMetricsNoLabels(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := reg.Scope("clock")
	sc.Add("events_fired", 1000)
	var b strings.Builder
	if err := WriteOpenMetrics(&b, reg.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "dikes_clock_events_fired_total 1000\n") {
		t.Errorf("unlabeled counter wrong:\n%s", got)
	}
	if !strings.HasSuffix(got, "# EOF\n") {
		t.Errorf("missing EOF:\n%s", got)
	}
}
