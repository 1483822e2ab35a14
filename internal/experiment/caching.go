package experiment

import (
	"time"

	"repro/internal/classify"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/stats"
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
	if c.Probes == 0 {
		c.Probes = 1200
	}
	if c.TTL == 0 {
		c.TTL = 3600
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 20 * time.Minute
	}
	if c.Rounds == 0 {
		c.Rounds = 7
	}
	return c
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
	Fig13 *stats.RoundSeries
	// MissRate is the headline warm-cache miss fraction (Figure 3).
	MissRate float64
}

// runCachingWorld builds, schedules, and runs one cell's caching
// testbed on base; the caller absorbs it into an accumulator.
func runCachingWorld(cfg CachingConfig, base TestbedConfig) *Testbed {
	base.TTL, base.KeepAuthLog = cfg.TTL, true
	tb := NewTestbed(base)
	total := time.Duration(cfg.Rounds) * cfg.ProbeInterval
	tb.ScheduleRotations(total + RotationInterval)
	tb.Fleet.Schedule(tb.Start, cfg.ProbeInterval, 5*time.Minute, cfg.Rounds)
	tb.Clk.RunUntil(tb.Start.Add(total + 10*time.Minute))
	return tb
}

// fetcherKey identifies one probe's name in one zone round.
type fetcherKey struct {
	qname string
	round int
}

// indexFetchers maps (probe name, rotation round) to the recursive
// addresses that fetched it from the authoritatives.
func indexFetchers(tb *Testbed) map[fetcherKey][]netsim.Addr {
	idx := make(map[fetcherKey][]netsim.Addr)
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType != dnswire.TypeAAAA || ev.Dropped {
				continue
			}
			k := fetcherKey{qname: tb.AuthQName(ev), round: int(ev.At / RotationInterval)}
			idx[k] = append(idx[k], tb.AuthSrc(ev))
		}
	}
	return idx
}
