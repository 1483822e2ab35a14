package experiment

import (
	"time"

	"repro/internal/dnswire"
	"repro/internal/passive"
	"repro/internal/recursive"
	"repro/internal/stats"
)

// RunNlFromSim derives the §4.1 analysis from an actual simulation rather
// than a synthesized trace: a harvesting resolver population serves probe
// queries for hours, and the authoritative-side tap records when each
// recursive re-fetches the zone's nameserver A records (TTL 3600). The
// inter-arrival distribution of those fetches is exactly what the paper
// measured at the .nl servers — honest resolvers re-appear once per TTL,
// fragmented farms more often.
type NlSimConfig struct {
	Probes   int
	Duration time.Duration
	Seed     int64
}

func (c NlSimConfig) withDefaults() NlSimConfig {
	if c.Probes == 0 {
		c.Probes = 400
	}
	if c.Duration == 0 {
		c.Duration = 6 * time.Hour
	}
	return c
}

// NlSimResult mirrors passive.NlResult for the simulated variant.
type NlSimResult struct {
	Config   NlSimConfig
	Analysis passive.InterarrivalAnalysis
	ECDF     *stats.ECDF
	// FracAtTTL is the fraction of per-recursive median inter-arrivals
	// within 10% of the 3600 s record TTL.
	FracAtTTL float64
	// FracBelowTTL counts recursives re-fetching early.
	FracBelowTTL float64
}

// RunNlFromSim executes the simulation and the paper's analysis.
func RunNlFromSim(cfg NlSimConfig) *NlSimResult {
	cfg = cfg.withDefaults()
	tb := NewTestbed(TestbedConfig{
		Probes: cfg.Probes,
		TTL:    3600,
		Seed:   cfg.Seed,
		Population: PopulationConfig{
			Harvest: recursive.HarvestFull,
		},
		KeepAuthLog: true,
	})
	rounds := int(cfg.Duration / (20 * time.Minute))
	tb.ScheduleRotations(cfg.Duration + RotationInterval)
	tb.Fleet.Schedule(tb.Start, 20*time.Minute, 5*time.Minute, rounds)
	tb.Clk.RunUntil(tb.Start.Add(cfg.Duration + 10*time.Minute))

	// The paper's target names: the zone's nameserver A records.
	nsHosts := map[string]bool{}
	for i := range tb.AuthAddrs {
		nsHosts["ns"+itoa(i+1)+"."+Domain] = true
	}
	var events []passive.QueryEvent
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType != dnswire.TypeA || !nsHosts[ev.QName] {
				continue
			}
			events = append(events, passive.QueryEvent{At: ev.At, Src: string(ev.Src)})
		}
	}

	res := &NlSimResult{Config: cfg}
	res.Analysis = passive.AnalyzeInterarrivals(events, 3, 10*time.Second)
	res.ECDF = stats.NewECDF(res.Analysis.Medians)
	at, below := 0, 0
	for _, m := range res.Analysis.Medians {
		switch {
		// Honoring resolvers re-fetch at or after the TTL; with paced
		// demand the refresh lands up to one probing interval late
		// ("expected or delayed cache refresh", §4.1).
		case m >= 3600*0.9:
			at++
		default:
			below++
		}
	}
	if n := len(res.Analysis.Medians); n > 0 {
		res.FracAtTTL = float64(at) / float64(n)
		res.FracBelowTTL = float64(below) / float64(n)
	}
	return res
}
