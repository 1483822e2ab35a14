// Package passive reproduces the paper's production-zone analyses (§4).
// The originals use private traces (.nl authoritative traffic and the
// DNS-OARC DITL root captures); this package synthesizes query streams
// from the same behavioral mix the paper measures — recursives that honor
// the TTL, recursives with capped or fragmented caches, and
// parallel-query ("Happy Eyeballs") bursts — then runs the paper's exact
// analyses on them: per-recursive inter-arrival times against the zone
// TTL (Figure 4) and queries-per-recursive distributions at the root
// letters (Figure 5).
package passive

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/lazyrand"
	"repro/internal/stats"
)

// QueryEvent is one observed query at an authoritative.
type QueryEvent struct {
	At  time.Time
	Src string
}

// InterarrivalAnalysis computes, per source with at least minQueries
// queries, the median inter-arrival time. Closely-timed queries (Δt below
// the exclusion threshold — parallel "Happy Eyeballs"-style bursts, the
// paper's 28%) are removed from each source's series before the median is
// taken, exactly as §4.1 describes.
type InterarrivalAnalysis struct {
	// Medians are the per-recursive median Δt values, seconds.
	Medians []float64
	// ExcludedFrac is the fraction of inter-arrivals dropped as
	// closely-timed.
	ExcludedFrac float64
	// Considered counts recursives meeting the minQueries threshold.
	Considered int
}

// AnalyzeInterarrivals groups events per source and computes the Figure 4
// distribution.
func AnalyzeInterarrivals(events []QueryEvent, minQueries int, exclude time.Duration) InterarrivalAnalysis {
	bySrc := make(map[string][]time.Time)
	for _, ev := range events {
		bySrc[ev.Src] = append(bySrc[ev.Src], ev.At)
	}
	var out InterarrivalAnalysis
	excluded, total := 0, 0
	for _, times := range bySrc {
		if len(times) < minQueries {
			continue
		}
		out.Considered++
		sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
		deltas := make([]float64, 0, len(times)-1)
		for i := 1; i < len(times); i++ {
			d := times[i].Sub(times[i-1]).Seconds()
			total++
			if d < exclude.Seconds() {
				excluded++
				continue
			}
			deltas = append(deltas, d)
		}
		if len(deltas) == 0 {
			continue
		}
		out.Medians = append(out.Medians, stats.Median(deltas))
	}
	if total > 0 {
		out.ExcludedFrac = float64(excluded) / float64(total)
	}
	return out
}

// NlConfig sizes the synthetic .nl trace (§4.1: six hours of A-record
// queries for ns1–ns5.dns.nl, TTL 3600 s).
type NlConfig struct {
	Resolvers int
	Duration  time.Duration
	TTL       time.Duration
	Seed      int64

	// Behavior mix; remainder honors the TTL. Defaults reproduce the
	// paper: ~22% of resolvers re-query inside the TTL, ~28% of queries
	// arrive in sub-10s bursts.
	FracCapped   float64 // re-fetches at TTL/2 (cache cap / limit)
	FracFrequent float64 // fragmented farms: exponential re-query
	FracParallel float64 // Happy-Eyeballs style paired queries
}

func (c NlConfig) withDefaults() NlConfig {
	if c.Resolvers == 0 {
		c.Resolvers = 7700
	}
	if c.Duration == 0 {
		c.Duration = 6 * time.Hour
	}
	if c.TTL == 0 {
		c.TTL = time.Hour
	}
	if c.FracCapped == 0 {
		c.FracCapped = 0.12
	}
	if c.FracFrequent == 0 {
		c.FracFrequent = 0.10
	}
	if c.FracParallel == 0 {
		c.FracParallel = 0.28
	}
	return c
}

// NlResult is the Figure 4 output.
type NlResult struct {
	Config   NlConfig
	Analysis InterarrivalAnalysis
	ECDF     *stats.ECDF
	// FracAtTTL is the fraction of medians within 5% of the zone TTL
	// (the paper's "largest peak is at 3600 s").
	FracAtTTL float64
	// FracBelowTTL is the fraction of resolvers re-querying early
	// (AC-type, the paper's 22%).
	FracBelowTTL float64
}

// RunNl synthesizes the trace and computes the Figure 4 analysis.
func RunNl(cfg NlConfig) *NlResult {
	cfg = cfg.withDefaults()
	rng := lazyrand.New(cfg.Seed)
	start := time.Date(2018, 2, 22, 12, 0, 0, 0, time.UTC)
	var events []QueryEvent

	for i := 0; i < cfg.Resolvers; i++ {
		src := "rec-" + itoa(i)
		r := rng.Float64()
		var interval func() time.Duration
		parallel := false
		switch {
		case r < cfg.FracParallel:
			parallel = true
			interval = func() time.Duration {
				return jitter(rng, cfg.TTL, 0.05)
			}
		case r < cfg.FracParallel+cfg.FracCapped:
			interval = func() time.Duration {
				return jitter(rng, cfg.TTL/2, 0.05)
			}
		case r < cfg.FracParallel+cfg.FracCapped+cfg.FracFrequent:
			interval = func() time.Duration {
				// Fragmented farms re-fetch with an exponential law well
				// inside the TTL.
				d := time.Duration(rng.ExpFloat64() * float64(cfg.TTL) / 4)
				if d < 30*time.Second {
					d = 30 * time.Second
				}
				return d
			}
		default:
			interval = func() time.Duration {
				return jitter(rng, cfg.TTL, 0.02)
			}
		}

		at := start.Add(time.Duration(rng.Int63n(int64(cfg.TTL))))
		for at.Sub(start) < cfg.Duration {
			events = append(events, QueryEvent{At: at, Src: src})
			if parallel {
				// A burst of 2-4 near-simultaneous queries.
				for b := 0; b < 1+rng.Intn(3); b++ {
					events = append(events, QueryEvent{
						At: at.Add(time.Duration(rng.Int63n(int64(5 * time.Second)))), Src: src,
					})
				}
			}
			at = at.Add(interval())
		}
	}

	res := &NlResult{Config: cfg}
	res.Analysis = AnalyzeInterarrivals(events, 5, 10*time.Second)
	res.ECDF = stats.NewECDF(res.Analysis.Medians)
	ttlS := cfg.TTL.Seconds()
	at, below := 0, 0
	for _, m := range res.Analysis.Medians {
		if math.Abs(m-ttlS)/ttlS <= 0.05 {
			at++
		} else if m < ttlS*0.95 {
			below++
		}
	}
	if n := len(res.Analysis.Medians); n > 0 {
		res.FracAtTTL = float64(at) / float64(n)
		res.FracBelowTTL = float64(below) / float64(n)
	}
	return res
}

func jitter(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	span := float64(d) * frac
	return d + time.Duration((rng.Float64()*2-1)*span)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
