package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the simulator child, exactly as
// the command's main does.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		if err := childMain(req, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.10, 1}, {0.25, 3}, {0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	unsorted := []float64{3, 1, 2}
	median(unsorted)
	if unsorted[0] != 3 || unsorted[2] != 2 {
		t.Errorf("median reordered its argument: %v", unsorted)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestCPUSet(t *testing.T) {
	s := oneCPU(3)
	s[1] = 1<<0 | 1<<6
	if got := fmt.Sprint(s.cpus()); got != "[3 64 70]" {
		t.Errorf("cpus() = %s, want [3 64 70]", got)
	}
	have, err := getAffinity(0)
	if err != nil || len(have.cpus()) == 0 {
		t.Errorf("getAffinity(0) = %v, %v; want at least one CPU", have.cpus(), err)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestDeclarationsAgree keeps BENCHMARK.json, the README glossary and the
// command's own metric tables in step.
func TestDeclarationsAgree(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	inReadme := func(name string) {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not mention `%s`", name)
		}
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		inReadme(w.name)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
		inReadme(d.Name)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(f.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
		if layer, _, ok := strings.Cut(d.Name, "."); !ok || layer == "" {
			t.Errorf("per-layer metric %s is not named <layer>.<name>", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		inReadme(d.Name)
	}
}

// toySize shrinks every workload so all eight passes finish in seconds.
var toySize = sizes{
	simProbes: 256, simShardProbes: 128, minReps: 2, setupSamples: 2, daemonSetups: 2,
	zoneNames: 2000, hotNames: 100,
	warmup: 100 * time.Millisecond, probeFor: 5 * time.Millisecond,
}

// TestToyWorkloads runs both passes of every workload at toy size, the
// daemons on ephemeral ports, and checks that each prints exactly the
// declared metrics with finite values and no failed operation.
func TestToyWorkloads(t *testing.T) {
	o := options{seed: 7, seconds: 500 * time.Millisecond, size: toySize}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(context.Background(), w, o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present=%v), declared unit %s", d.Name, m, ok, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if traced && w.name == "daemon_auth_udp" {
					for _, name := range []string{"cache.hits", "cache.puts", "recursive.client_queries", "recursive.upstream_queries"} {
						if v := res.Metrics[name].Value; v != 0 {
							t.Errorf("%s = %v on a workload that bypasses the layer", name, v)
						}
					}
				}
				if traced && w.name == "daemon_recursive_mix" {
					if v := res.Metrics["recursive.miss_share"].Value; v < 0.1 || v > 0.3 {
						t.Errorf("recursive.miss_share = %v, want about %v", v, missShare)
					}
				}
			})
		}
	}
}
