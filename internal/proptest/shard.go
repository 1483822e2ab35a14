package proptest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/lazyrand"
)

// Shard-count axis: the sharded experiment engine promises that the
// Shards concurrency knob never changes results — only the cell layout
// (Probes, ShardProbes, Seed) does. ShardCase draws a random experiment
// kind and cell geometry from a seed; RenderShardCase runs it at a given
// shard count and flattens every rendered table plus the run-report JSON
// into one byte string, so a property test can require byte-identity
// across shard counts the same way the world harness requires it across
// rebuilds.

// ShardCase is one generated point on the shard axis.
type ShardCase struct {
	Kind string // "ddos", "caching", or "glue"
	Cfg  experiment.RunConfig
	Spec experiment.DDoSSpec // used when Kind == "ddos"
}

// GenerateShardCase derives a shard-determinism case from seed. Geometry
// is drawn so most cases span several cells, including ragged trailing
// cells and the single-cell edge.
func GenerateShardCase(seed int64) ShardCase {
	rng := lazyrand.New(seed)
	c := ShardCase{
		Kind: []string{"ddos", "caching", "glue"}[rng.Intn(3)],
		Cfg: experiment.RunConfig{
			Probes:      8 + rng.Intn(56),
			ShardProbes: 4 + rng.Intn(28),
			Seed:        rng.Int63(),
		},
	}
	switch c.Kind {
	case "ddos":
		interval := time.Duration(5+rng.Intn(11)) * time.Minute
		rounds := 3 + rng.Intn(3)
		c.Spec = experiment.DDoSSpec{
			Name: "P", TTL: uint32(60 + rng.Intn(600)),
			DDoSStart:     interval,
			DDoSDur:       time.Duration(1+rng.Intn(2)) * interval,
			TotalDur:      time.Duration(rounds) * interval,
			ProbeInterval: interval,
			Loss:          []float64{0.5, 0.75, 0.9, 1.0}[rng.Intn(4)],
			TargetsAll:    rng.Intn(2) == 1,
		}
	case "caching":
		c.Cfg.TTL = uint32(60 + rng.Intn(1800))
		c.Cfg.ProbeInterval = time.Duration(5+rng.Intn(16)) * time.Minute
		c.Cfg.Rounds = 2 + rng.Intn(3)
	}
	return c
}

// RenderShardCase runs the case with the given shard count and returns
// the full rendered output (tables + report JSON).
func RenderShardCase(c ShardCase, shards int) ([]byte, error) {
	cfg := c.Cfg
	cfg.Shards = shards
	var sc experiment.Scenario
	switch c.Kind {
	case "ddos":
		sc = experiment.DDoSScenario(c.Spec)
	case "caching":
		sc = experiment.CachingScenario()
	case "glue":
		sc = experiment.GlueScenario()
	default:
		return nil, fmt.Errorf("unknown shard case kind %q", c.Kind)
	}
	out, err := experiment.Run(context.Background(), sc, cfg)
	if err != nil {
		return nil, err
	}
	return renderShardOutcome(out)
}

func renderShardOutcome(out *experiment.Outcome) ([]byte, error) {
	var buf []byte
	app := func(s string) { buf = append(buf, s...) }
	switch {
	case out.DDoS != nil:
		r := out.DDoS
		app(experiment.RenderTable4([]*experiment.DDoSResult{r}))
		app(experiment.RenderLatency(r))
		app(experiment.RenderUniqueRn(r))
		app(experiment.RenderAmplification(r))
		app(r.Answers.Table(nil))
		app(r.Classes.Table(nil))
		app(r.AuthQueries.Table(nil))
	case out.Caching != nil:
		r := out.Caching
		app(experiment.RenderTable1([]*experiment.CachingResult{r}))
		app(experiment.RenderTable2([]*experiment.CachingResult{r}))
		app(experiment.RenderTable3([]*experiment.CachingResult{r}))
		app(r.Fig13.Table(nil))
	case out.Glue != nil:
		app(experiment.RenderTable5(out.Glue))
	}
	if out.Report != nil {
		w := &sliceWriter{buf: buf}
		if err := out.Report.WriteJSON(w); err != nil {
			return nil, err
		}
		buf = w.buf
	}
	return buf, nil
}

type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
