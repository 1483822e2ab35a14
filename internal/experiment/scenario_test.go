package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// shortSpec is a fast DDoS spec for sharded-engine tests: 6 probing
// rounds with a 20-minute loss window in the middle.
func shortSpec() DDoSSpec {
	return DDoSSpec{
		Name: "T", TTL: 300,
		DDoSStart: 20 * time.Minute, DDoSDur: 20 * time.Minute,
		TotalDur:      60 * time.Minute,
		ProbeInterval: 10 * time.Minute, Loss: 0.8, TargetsAll: true,
	}
}

// drillSpec is shortSpec run as the drill experiment: its cells keep the
// tap log and fold Table 7.
func drillSpec() DDoSSpec {
	spec := shortSpec()
	spec.Name = drillExperiment
	return spec
}

// renderOutcome flattens everything a scenario outcome reports — tables,
// series, and the full report JSON (metrics snapshot + invariants) —
// into one byte string for identity comparison.
func renderOutcome(t *testing.T, out *Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	switch {
	case out.DDoS != nil:
		r := out.DDoS
		buf.WriteString(RenderTable4([]*DDoSResult{r}))
		buf.WriteString(RenderLatency(r))
		buf.WriteString(RenderUniqueRn(r))
		buf.WriteString(RenderAmplification(r))
		buf.WriteString(r.Answers.CSV())
		buf.WriteString(r.Classes.CSV())
		buf.WriteString(r.AuthQueries.CSV())
	case out.Caching != nil:
		r := out.Caching
		buf.WriteString(RenderTable1([]*CachingResult{r}))
		buf.WriteString(RenderTable2([]*CachingResult{r}))
		buf.WriteString(RenderTable3([]*CachingResult{r}))
		buf.WriteString(r.Fig13.CSV())
	case out.Glue != nil:
		buf.WriteString(RenderTable5(out.Glue))
	case out.NXNS != nil:
		buf.WriteString(RenderNXNS(out.NXNS))
	case out.Poison != nil:
		buf.WriteString(RenderPoison([]*PoisonResult{out.Poison}))
	case out.Reflect != nil:
		buf.WriteString(RenderReflect(out.Reflect))
	case out.Transport != nil:
		buf.WriteString(RenderTransport(out.Transport))
	}
	if out.Report != nil {
		if err := out.Report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestShardDeterminism is the engine's core contract: with the cell
// layout fixed by (Probes, ShardProbes, Seed), the Shards concurrency
// knob must not change a single byte of any rendered table or of the
// report JSON (metrics snapshot and invariants included).
func TestShardDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		sc   Scenario
		cfg  RunConfig
	}{
		{"ddos", DDoSScenario(shortSpec()),
			RunConfig{Probes: 48, ShardProbes: 16, Seed: 42}},
		{"caching", CachingScenario(),
			RunConfig{Probes: 48, ShardProbes: 16, Seed: 42, TTL: 600,
				ProbeInterval: 10 * time.Minute, Rounds: 3}},
		{"glue", GlueScenario(),
			RunConfig{Probes: 30, ShardProbes: 8, Seed: 42}},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			var base []byte
			for _, k := range []int{1, 2, 4, 8} {
				cfg := tc.cfg
				cfg.Shards = k
				out, err := Run(context.Background(), tc.sc, cfg)
				if err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				if out.Report == nil {
					t.Fatalf("K=%d: no report", k)
				}
				if !out.Report.OK() {
					t.Fatalf("K=%d: invariants failed: %+v", k, out.Report.FailedInvariants())
				}
				rendered := renderOutcome(t, out)
				if base == nil {
					base = rendered
					continue
				}
				if !bytes.Equal(base, rendered) {
					t.Fatalf("K=%d output differs from K=1:\n%s\nvs\n%s", k, rendered, base)
				}
			}
		})
	}
}

// TestShardPlanStability pins the cell layout rules the determinism
// contract rests on.
func TestShardPlanStability(t *testing.T) {
	cases := []struct {
		probes, shardProbes int
		want                []int
	}{
		{10, 4, []int{4, 4, 2}},
		{8, 4, []int{4, 4}},
		{3, 4, []int{3}},
		{5, 0, []int{5}},
		{0, 4, []int{0}},
	}
	for _, c := range cases {
		got := planCells(c.probes, c.shardProbes)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("planCells(%d, %d) = %v, want %v", c.probes, c.shardProbes, got, c.want)
		}
	}
	// Cell seeds depend only on (seed, index) and must differ across cells.
	if mixSeed(7, 0) == mixSeed(7, 1) {
		t.Error("adjacent cells share a seed")
	}
	if mixSeed(7, 0) != mixSeed(7, 0) {
		t.Error("mixSeed is not a pure function")
	}
}

// TestRunConfigDefaults pins the withDefaults rules the API documents.
func TestRunConfigDefaults(t *testing.T) {
	if got := (RunConfig{}).withDefaults(); got.Probes != 1200 || got.Shards != 1 || got.ShardProbes != DefaultShardProbes {
		t.Errorf("zero config: %+v (want 1200 probes, 1 shard, default cell size)", got)
	}
	if got := (RunConfig{Shards: -3}).withDefaults(); got.Shards != 1 {
		t.Errorf("Shards=-3: Shards = %d, want 1", got.Shards)
	}
	if got := (RunConfig{Shards: 4}).withDefaults(); got.ShardProbes != DefaultShardProbes {
		t.Errorf("Shards=4: ShardProbes = %d, want %d", got.ShardProbes, DefaultShardProbes)
	}
	if got := (RunConfig{ShardProbes: 100}).withDefaults(); got.Shards != 1 {
		t.Errorf("ShardProbes set: Shards = %d, want 1", got.Shards)
	}
	if got := (RunConfig{Shards: 2, ShardProbes: 1 << 20}).withDefaults(); got.ShardProbes != MaxShardProbes {
		t.Errorf("oversized ShardProbes not clamped: %d", got.ShardProbes)
	}
}

// TestRunCancelledPartial drives every cell family through the one
// driver on a 3-cell plan. Cancelling after the first cell must yield a
// typed error plus a partial outcome that covers exactly that cell, with
// internally consistent merged metrics; the ddos family runs the drill
// experiment, so the partial's Table 7 is the first cell's, and no cell
// that never ran contributes one.
func TestRunCancelledPartial(t *testing.T) {
	// size is a scalar that grows with the cells a family result covers;
	// -1 when the family result is missing.
	families := []struct {
		name string
		sc   Scenario
		size func(*Outcome) int64
	}{
		{"ddos", DDoSScenario(drillSpec()), func(o *Outcome) int64 {
			if o.DDoS == nil {
				return -1
			}
			return int64(o.DDoS.Table4.Probes)
		}},
		{"caching", CachingScenario(), func(o *Outcome) int64 {
			if o.Caching == nil {
				return -1
			}
			return int64(o.Caching.Table1.Probes)
		}},
		{"glue", GlueScenario(), func(o *Outcome) int64 {
			if o.Glue == nil {
				return -1
			}
			return int64(o.Glue.NS.Total)
		}},
		{"nxns", NXNSScenario(NXNSSpec{}), func(o *Outcome) int64 {
			if o.NXNS == nil {
				return -1
			}
			var n int64
			for _, row := range o.NXNS.Rows {
				n += row.Queries
			}
			return n
		}},
		{"poison", PoisonScenario(PoisonSpec{}), func(o *Outcome) int64 {
			if o.Poison == nil {
				return -1
			}
			return o.Poison.Attempts
		}},
		{"reflect", ReflectScenario(), func(o *Outcome) int64 {
			if o.Reflect == nil {
				return -1
			}
			return o.Reflect.VictimPackets
		}},
		{"transport", TransportScenario(TransportSpec{}), func(o *Outcome) int64 {
			if o.Transport == nil {
				return -1
			}
			var n int64
			for _, row := range o.Transport.Rows {
				n += row.Queries
			}
			return n
		}},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			cfg := RunConfig{Probes: 48, ShardProbes: 16, Shards: 1, Seed: 3,
				TTL: 600, ProbeInterval: 10 * time.Minute, Rounds: 3}

			// Cell 0 of the 3-cell plan is exactly the 16-probe run.
			firstCfg := cfg
			firstCfg.Probes = 16
			first := mustRun(t, f.sc, firstCfg)
			if f.size(first) <= 0 {
				t.Fatalf("first-cell run is empty (size %d)", f.size(first))
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelled := cfg
			cancelled.afterShard = func(cell int, _ *Testbed) {
				if cell == 0 {
					cancel()
				}
			}
			out, err := Run(ctx, f.sc, cancelled)
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			if out == nil || f.size(out) < 0 {
				t.Fatal("cancelled run returned no partial family result")
			}
			if got, want := f.size(out), f.size(first); got != want {
				t.Errorf("partial outcome has size %d, want %d (first cell only)", got, want)
			}
			if out.Report == nil {
				t.Fatal("cancelled run has no partial metrics report")
			}
			if !out.Report.OK() {
				t.Errorf("partial metrics inconsistent: %+v", out.Report.FailedInvariants())
			}
			if out.DDoS != nil && (out.DDoS.Table7 == nil || !reflect.DeepEqual(out.DDoS.Table7, first.DDoS.Table7)) {
				t.Errorf("partial Table 7 %+v, want the first cell's %+v", out.DDoS.Table7, first.DDoS.Table7)
			}

			// The uncancelled run covers the whole population.
			full := mustRun(t, f.sc, cfg)
			if got := f.size(full); got <= f.size(first) {
				t.Errorf("full run has size %d, want more than the first cell's %d", got, f.size(first))
			}
			if !full.Report.OK() {
				t.Errorf("full run invariants failed: %+v", full.Report.FailedInvariants())
			}
		})
	}
}

// TestShardedPerProbe: Table 7 is one part of the ddos fold, so a
// multi-cell run prints the same drill-down for every Shards value: the
// busiest probe of the cells run directly, ties kept by the earlier cell.
// Each cell's tables read that cell's own tap log (probe IDs restart in
// every cell): summing the authoritative queries of every probe of every
// cell reproduces the merged AAAA-for-PID series exactly, which reading
// another cell's log or missing a probe would break.
func TestShardedPerProbe(t *testing.T) {
	spec := drillSpec()
	cfg := RunConfig{Probes: 40, ShardProbes: 16, Seed: 9}
	var out *Outcome
	var want string
	for _, k := range []int{1, 2, 4} {
		cfg.Shards = k
		out = mustRun(t, DDoSScenario(spec), cfg)
		if out.DDoS.Table7 == nil {
			t.Fatalf("shards %d: no Table 7", k)
		}
		if got := RenderTable7(*out.DDoS.Table7); k == 1 {
			want = got
		} else if got != want {
			t.Errorf("shards %d: Table 7\n%s\nshards 1:\n%s", k, got, want)
		}
	}

	rounds := int(spec.TotalDur / spec.ProbeInterval)
	ac := newDDoSAccum(spec, testbedStart, rounds)
	perRound := make([]int, rounds)
	busiest, bestN := "", -1
	cells := planCells(cfg.Probes, cfg.ShardProbes)
	if len(cells) != 3 {
		t.Fatalf("planned %v, want 3 cells", cells)
	}
	for i, n := range cells {
		tb := runDDoSTestbed(spec, TestbedConfig{Probes: n, Seed: mixSeed(cfg.Seed, i), KeepAuthLog: true})
		if id, n := busiestProbeCount(tb); n > bestN {
			busiest, bestN = RenderTable7(ac.perProbe(tb, id)), n
		}
		for _, p := range tb.Pop.Probes {
			for r, row := range ac.perProbe(tb, p.ID).Rounds {
				perRound[r] += row.AuthQueries
			}
		}
	}
	if bestN <= 0 {
		t.Errorf("busiest probe saw %d authoritative queries", bestN)
	}
	if busiest != want {
		t.Errorf("the run's Table 7\n%s\nthe cells' busiest probe\n%s", want, busiest)
	}
	for r := 0; r < rounds; r++ {
		want := int(out.DDoS.AuthQueries.Get(r, labelPID))
		if perRound[r] != want {
			t.Errorf("round %d: per-probe auth queries sum to %d, series says %d",
				r, perRound[r], want)
		}
	}
}
