package experiment

import (
	"context"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/vantage"
)

// Cell decomposition for population-scale runs. A large probe population
// is split into fixed-capacity cells of ShardProbes probes; each cell is
// a fully self-contained testbed (its own virtual clock, network,
// resolver population, and probe fleet) built from a seed derived only
// from (run seed, cell index). The Shards knob of RunConfig controls how
// many cells run concurrently — it never changes which cells exist or
// how they are seeded, which is why a K-shard run is byte-identical to a
// 1-shard run: same cells, same per-cell results, merged by
// order-independent accumulators.

// MaxShardProbes is the largest cell capacity: probe IDs are cell-local
// uint16 values (the AAAA encoding carries a 16-bit probe ID), so one
// cell can hold at most 65535 probes. Populations beyond that always
// span multiple cells.
const MaxShardProbes = 65535

// DefaultShardProbes is the default cell capacity of sharded runs, sized
// so one live cell stays within a few hundred MB of heap while leaving
// enough probes per cell for the population mix to be representative.
const DefaultShardProbes = 4096

// mixSeed derives the seed of cell index i from the run seed, using a
// splitmix64-style finalizer so nearby run seeds and cell indices land on
// unrelated testbed seeds. The derivation depends only on (seed, cell),
// never on the shard concurrency, so the cell layout is stable across K.
func mixSeed(seed int64, cell int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(cell+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// planCells splits probes into cell sizes: full cells of shardProbes with
// a smaller trailing cell for the remainder. shardProbes is clamped to
// MaxShardProbes; non-positive values plan a single cell.
func planCells(probes, shardProbes int) []int {
	if shardProbes <= 0 || shardProbes > MaxShardProbes {
		if probes <= MaxShardProbes && shardProbes <= 0 {
			return []int{probes}
		}
		shardProbes = MaxShardProbes
	}
	var cells []int
	for remaining := probes; remaining > 0; remaining -= shardProbes {
		n := shardProbes
		if remaining < n {
			n = remaining
		}
		cells = append(cells, n)
	}
	if len(cells) == 0 {
		cells = []int{0}
	}
	return cells
}

// cellRun is one scenario family's part of a run: everything else —
// cell planning and seeding, the fan-out, snapshot merge, trace arming
// and capture, progress ticks, cancellation — is runCells. P is the
// family's per-cell partial result; the cell's testbed dies with the
// cell, so whatever a result needs of it goes into P.
type cellRun[P any] struct {
	// horizon is how long one cell runs. When it is positive and
	// RunConfig.Timeline is set, every cell gets a run timeline over it
	// (TestbedConfig.timeline), its fleet's client outcomes are binned at
	// the end, and the cells merge into Outcome.Timeline.
	horizon time.Duration
	// cell builds and runs one cell on base — the cell's probe count,
	// derived seed and trace config, to which the family adds its own
	// knobs — and returns its partial plus the finished testbed. Called
	// concurrently, one call per cell.
	cell func(base TestbedConfig) (P, *Testbed)
	// fold adds one cell's partial to the family's running total. Called
	// sequentially, in cell-index order, after the fan-out.
	fold func(P)
	// finish finalizes the total over the merged snapshot: it stores the
	// family result in out and returns the family's own report labels
	// (nil for none) and invariant verdicts. runCells adds the labels
	// every run has and assembles the report.
	finish func(out *Outcome, snap metrics.Snapshot) (labels map[string]string, invs []metrics.Invariant)
}

// runCells is the one cell loop every population-scale scenario runs
// through. Cells are planned from (Probes, ShardProbes) and seeded from
// (Seed, cell index) only; cfg.Shards of them run at once and their
// partials fold in cell-index order, so the Outcome is byte-identical
// for every Shards value. reportName names the run report. When ctx
// fires mid-run the Outcome covers the cells that finished and the error
// wraps ErrCancelled.
func runCells[P any](ctx context.Context, reportName string, cfg RunConfig, fam cellRun[P]) (*Outcome, error) {
	type cellResult struct {
		part P
		snap metrics.Snapshot
		ct   *trace.CellTrace
		tl   *timeline.Timeline
	}
	out := &Outcome{}
	// Every cell's timeline has the grid of out.Timeline, derived only
	// from (start, horizon, bucket), which is what makes the merge exact.
	if cfg.Timeline != nil && fam.horizon > 0 {
		out.Timeline = timeline.NewRun(testbedStart, fam.horizon, *cfg.Timeline)
	}
	cells := planCells(cfg.Probes, cfg.ShardProbes)
	results, runErr := parallel.MapCtx(ctx, cfg.Shards, cells, func(i, n int) *cellResult {
		var tl *timeline.Timeline
		if out.Timeline != nil {
			tl = timeline.NewRun(testbedStart, fam.horizon, *cfg.Timeline)
		}
		part, tb := fam.cell(TestbedConfig{Probes: n, Seed: mixSeed(cfg.Seed, i), Trace: cfg.Trace,
			timeline: tl, built: cfg.onTestbed})
		if tl != nil && tb.Fleet != nil {
			binOutcomes(tl, tb.Fleet)
		}
		cr := &cellResult{part: part, snap: tb.CollectMetrics().Snapshot(), tl: tl}
		if tr := tb.Net.Trace(); tr != nil {
			cr.ct = &trace.CellTrace{Cell: i, Dropped: tr.Dropped(), Events: tr.Events()}
		}
		if cfg.Progress != nil {
			_, fired, _ := tb.Clk.Counters()
			cfg.Progress.CellDone(fired, tb.Clk.Now().Sub(tb.Start))
		}
		if cfg.afterShard != nil {
			cfg.afterShard(i, tb)
		}
		return cr
	})

	reg := metrics.NewRegistry()
	if cfg.Trace != nil {
		out.Trace = &trace.Data{SampleEvery: cfg.Trace.SampleEvery}
	}
	for _, cr := range results {
		if cr == nil {
			continue // cancelled before this cell ran
		}
		fam.fold(cr.part)
		reg.Merge(cr.snap)
		out.Timeline.Merge(cr.tl)
		if cr.ct != nil {
			// results is in cell-index order, so the merged trace is too —
			// independent of which worker ran which cell.
			out.Trace.Cells = append(out.Trace.Cells, *cr.ct)
		}
	}
	snap := reg.Snapshot()
	// The Shards concurrency knob is deliberately not a label: reports
	// must be byte-identical across K, and K never changes the results.
	labels := map[string]string{
		"probes":       strconv.Itoa(cfg.Probes),
		"seed":         strconv.FormatInt(cfg.Seed, 10),
		"shard_probes": strconv.Itoa(cfg.ShardProbes),
		"shard_cells":  strconv.Itoa(len(cells)),
	}
	own, invs := fam.finish(out, snap)
	invs = append(invs, engineLaws(snap)...)
	for k, v := range own {
		labels[k] = v
	}
	out.Report = &metrics.Report{Name: reportName, Labels: labels, Metrics: snap, Invariants: invs}
	if runErr != nil {
		return out, cancelErr(runErr)
	}
	return out, nil
}

// binOutcomes counts a finished cell's client outcomes into its run
// timeline. They are derived client-side rather than emitted by the
// probes: each answer's event time is its arrival, or the moment the
// stub gave up (RTT is the timeout duration then).
func binOutcomes(tl *timeline.Timeline, fleet *vantage.Fleet) {
	for _, p := range fleet.Probes {
		for _, a := range p.Answers() {
			col := timeline.ServFail
			switch a.Outcome {
			case vantage.Timeout:
				col = timeline.Failed
			case vantage.Valid:
				col = timeline.Answered
			}
			tl.Add(a.SentAt().Add(a.RTT), col, 1)
		}
	}
}
