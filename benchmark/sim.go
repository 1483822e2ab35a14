package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/spec"
)

//go:embed specs/ddos_h.json
var specDDoSH []byte

//go:embed specs/caching_calm.json
var specCachingCalm []byte

// childEnv carries a simChild request to a re-executed copy of this
// binary. An environment variable rather than a flag, so the package's
// test binary can serve as the child too.
const childEnv = "DIKES_BENCH_CHILD"

// simChild asks a child process for one simulator repetition.
type simChild struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Shards overrides the spec's engine.shards (pure concurrency: the
	// cells and the report bytes are the same at any value).
	Shards int `json:"shards"`
	// Probes and ShardProbes, when positive, shrink the spec to toy size.
	Probes      int `json:"probes"`
	ShardProbes int `json:"shard_probes"`
	// SetupOnly stops after spec compilation: a set-up time sample.
	SetupOnly bool `json:"setup_only"`
}

// simRep is what the child reports back on standard output.
type simRep struct {
	// ReadyUnixNs is the wall-clock instant just before the first timed
	// operation (RunCampaign); set-up time runs from the parent's spawn
	// to here.
	ReadyUnixNs int64   `json:"ready_unix_ns"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	HWMBytes    int64   `json:"hwm_bytes"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	Probes      int     `json:"probes"`
	// Digest is the SHA-256 of the run report's JSON (labels, every
	// component counter, invariant verdicts); equal digests mean equal
	// simulated behaviour.
	Digest string `json:"digest"`
	// Failure is non-empty when the run returned an error or an
	// accounting invariant failed.
	Failure string           `json:"failure"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// compileSim parses the workload's spec, writes the seed (and any size
// override) into its engine section, and compiles it to the one campaign
// item it describes.
func compileSim(req simChild) (experiment.CampaignItem, error) {
	var zero experiment.CampaignItem
	w, ok := workloadByName(req.Workload)
	if !ok || w.spec == nil {
		return zero, fmt.Errorf("%q is not a simulator workload", req.Workload)
	}
	s, err := spec.Parse(w.spec)
	if err != nil {
		return zero, err
	}
	s.Engine.Seed = &req.Seed
	if req.Shards > 0 {
		s.Engine.Shards = req.Shards
	}
	if req.Probes > 0 {
		s.Engine.Probes = req.Probes
	}
	if req.ShardProbes > 0 {
		s.Engine.ShardProbes = req.ShardProbes
	}
	items, err := spec.CompileAll(s, w.name)
	if err != nil {
		return zero, err
	}
	if len(items) != 1 {
		return zero, fmt.Errorf("spec %s expands to %d runs, want 1", w.name, len(items))
	}
	return items[0], nil
}

// runItem runs one compiled item through the campaign runner and checks
// what it produced.
func runItem(ctx context.Context, item experiment.CampaignItem) (*experiment.Outcome, time.Duration, error) {
	start := time.Now()
	results, err := experiment.RunCampaign(ctx, []experiment.CampaignItem{item}, 1)
	wall := time.Since(start)
	if err != nil {
		return nil, wall, err
	}
	r := results[0]
	if r.Err != nil {
		return nil, wall, r.Err
	}
	if r.Outcome == nil || r.Outcome.Report == nil {
		return nil, wall, fmt.Errorf("run produced no report")
	}
	if failed := r.Outcome.Report.FailedInvariants(); len(failed) > 0 {
		return r.Outcome, wall, fmt.Errorf("invariant %s failed: %s", failed[0].Name, failed[0].Detail)
	}
	return r.Outcome, wall, nil
}

// reportDigest hashes a run report's JSON.
func reportDigest(r *metrics.Report) string {
	h := sha256.New()
	if err := r.WriteJSON(h); err != nil {
		return "unhashable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// childMain serves one simChild request in this (fresh) process and
// writes the simRep to w.
func childMain(request string, w io.Writer) error {
	var req simChild
	if err := json.Unmarshal([]byte(request), &req); err != nil {
		return fmt.Errorf("child request: %w", err)
	}
	item, err := compileSim(req)
	if err != nil {
		return err
	}
	rep := simRep{Probes: item.Config.Probes}
	if req.SetupOnly {
		rep.ReadyUnixNs = time.Now().UnixNano()
		return json.NewEncoder(w).Encode(rep)
	}
	pid := os.Getpid()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	rep.ReadyUnixNs = time.Now().UnixNano()
	out, wall, runErr := runItem(context.Background(), item)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rep.WallS = wall.Seconds()
	rep.CPUS = cpu1 - cpu0
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.Mallocs = after.Mallocs - before.Mallocs
	if rep.HWMBytes, err = procHWM(pid); err != nil {
		return err
	}
	if runErr != nil {
		rep.Failure = runErr.Error()
	}
	if out != nil && out.Report != nil {
		rep.Digest = reportDigest(out.Report)
		rep.Metrics = out.Report.Metrics
	}
	return json.NewEncoder(w).Encode(rep)
}

// spawnSim runs one simChild request in a fresh process and returns its
// report plus the set-up time: spawn to the child's first timed
// operation, so process start and spec compilation are both in it.
func spawnSim(ctx context.Context, req simChild) (simRep, float64, error) {
	var rep simRep
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(body))
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 2 * time.Second
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return rep, 0, fmt.Errorf("simulator child: %w", err)
	}
	// The test binary prints its own verdict after the report line.
	line, _, _ := bytes.Cut(out, []byte("\n"))
	if err := json.Unmarshal(line, &rep); err != nil {
		return rep, 0, fmt.Errorf("simulator child output: %w", err)
	}
	return rep, float64(rep.ReadyUnixNs-start.UnixNano()) / 1e9, nil
}

// counter reads one component counter of a run report snapshot.
func counter(s metrics.Snapshot, scope, name string) float64 {
	return float64(s.Scope(scope).Counter(name))
}

// simEndToEnd measures a simulator workload with tracing off: repeated
// full-spec campaigns, each in a fresh process so peak RSS is per
// repetition, until the time budget is spent.
func simEndToEnd(ctx context.Context, w workload, o options) (result, error) {
	req := simChild{Workload: w.name, Seed: o.seed, Probes: o.size.simProbes, ShardProbes: o.size.simShardProbes}
	var setups, qps, cpuUs, rssMiB []float64
	var res result
	digest := ""
	deadline := time.Now().Add(o.seconds)
	for rep := 0; rep < o.size.minReps || time.Now().Before(deadline); rep++ {
		r, setup, err := spawnSim(ctx, req)
		if err != nil {
			return res, err
		}
		queries := counter(r.Metrics, "vantage", "queries_sent")
		if rep == 0 {
			digest = r.Digest
		}
		res.Attempted += r.Probes
		switch {
		case r.Failure != "":
			fmt.Printf("rep %d FAILED: %s\n", rep+1, r.Failure)
			res.Failed += r.Probes
		case r.Digest != digest:
			fmt.Printf("rep %d FAILED: report digest %s differs from rep 1's %s\n", rep+1, r.Digest, digest)
			res.Failed += r.Probes
		case queries == 0:
			fmt.Printf("rep %d FAILED: no stub queries simulated\n", rep+1)
			res.Failed += r.Probes
		default:
			setups = append(setups, setup)
			qps = append(qps, queries/r.WallS)
			cpuUs = append(cpuUs, 1e6*r.CPUS/queries)
			rssMiB = append(rssMiB, float64(r.HWMBytes)/(1<<20))
		}
	}
	// Set-up is a few milliseconds; extra set-up-only children steady
	// its median.
	req.SetupOnly = true
	for len(setups) < o.size.setupSamples {
		_, setup, err := spawnSim(ctx, req)
		if err != nil {
			return res, err
		}
		setups = append(setups, setup)
	}
	fmt.Printf("workload %s seed %d report digest %s\n", w.name, o.seed, digest)
	fmt.Printf("  qps              %.6g fast decile; median %s  (simulated stub queries per host second)\n", fastDecile(qps, true), summary(qps))
	fmt.Printf("  cpu_us_per_query %.6g fast decile; median %s\n", fastDecile(cpuUs, false), summary(cpuUs))
	fmt.Printf("  peak_rss_mib     %s\n", summary(rssMiB))
	fmt.Printf("  setup_s          %s\n", summary(setups))
	res.Correct = res.Failed == 0
	var err error
	res.Metrics, err = fillMetrics(endToEnd, map[string]float64{
		"qps": fastDecile(qps, true), "cpu_us_per_query": fastDecile(cpuUs, false),
		"peak_rss_mib": median(rssMiB), "setup_s": median(setups),
	}, false)
	return res, err
}
