package experiment

import (
	"time"

	"repro/internal/classify"
	"repro/internal/timeline"
)

// CachingConfig parameterizes one §3 baseline run (a column of Table 1).
type CachingConfig struct {
	Probes        int
	TTL           uint32
	ProbeInterval time.Duration // 20 min in the first four runs, 10 in the fifth
	Rounds        int
	Seed          int64
	Population    PopulationConfig
}

func (c CachingConfig) withDefaults() CachingConfig {
	orDefault(&c.Probes, 1200)
	orDefault(&c.TTL, 3600)
	orDefault(&c.ProbeInterval, 20*time.Minute)
	orDefault(&c.Rounds, 7)
	return c
}

// horizon is how long a cell runs: the probing rounds plus ten minutes
// for the last answers to land.
func (c CachingConfig) horizon() time.Duration {
	return time.Duration(c.Rounds)*c.ProbeInterval + 10*time.Minute
}

// Table1 is one column of the paper's Table 1.
type Table1 struct {
	TTL          uint32
	Probes       int
	ProbesValid  int
	ProbesDisc   int
	VPs          int
	Queries      int
	Answers      int
	AnswersValid int
	AnswersDisc  int
}

// Table3 is the paper's public-resolver attribution of cache misses.
type Table3 struct {
	ACAnswers     int
	PublicR1      int
	GoogleR1      int
	OtherPublicR1 int
	NonPublicR1   int
	GoogleRn      int // non-public R1 whose fetch emerged from Google
	OtherRn       int
}

// CachingResult bundles everything a §3 run produces.
type CachingResult struct {
	Config CachingConfig
	Table1 Table1
	Table2 classify.Table2
	Table3 Table3
	// Fig13 counts answer categories per probing round (Appendix B).
	// Columns are classify.Category.
	Fig13 *timeline.Timeline
	// MissRate is the headline warm-cache miss fraction (Figure 3).
	MissRate float64
}

// runCachingWorld builds, schedules, and runs one cell's caching
// testbed on base (whose fold the caller sets); the caller absorbs it
// into an accumulator.
func runCachingWorld(cfg CachingConfig, base TestbedConfig) *Testbed {
	base.TTL = cfg.TTL
	tb := NewTestbed(base)
	tb.ScheduleRotations(time.Duration(cfg.Rounds)*cfg.ProbeInterval + RotationInterval)
	tb.Fleet.Schedule(tb.Start, cfg.ProbeInterval, 5*time.Minute, cfg.Rounds)
	tb.Clk.RunUntil(tb.Start.Add(cfg.horizon()))
	return tb
}

// fetcherKey identifies one probe's name (an AuthEvent.QName) in one
// zone round.
type fetcherKey struct {
	qname uint32
	round int32
}

// rotationRound is the zone round in force at offset since the start.
func rotationRound(offset time.Duration) int32 { return int32(offset / RotationInterval) }
