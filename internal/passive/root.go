package passive

import (
	"math"
	"sort"

	"repro/internal/lazyrand"
	"repro/internal/stats"
)

// The synthetic DITL-style root trace (§4.2: one day of DS queries for
// "nl" — TTL 86400 s — across the root letters).
const (
	rootResolvers = 7000
	rootLetters   = 13
	// rootFracSingle is the fraction of recursives sending exactly one
	// query in the day (the paper: ~87%).
	rootFracSingle = 0.87
	// rootTailAlpha shapes the Pareto tail of heavy requesters (lower =
	// heavier; the paper sees up to 21.8k queries from one source).
	rootTailAlpha = 0.9
	// rootMaxQueries truncates the tail.
	rootMaxQueries = 22000
)

// RootResult is the Figure 5 output: the per-letter and aggregate
// distributions of queries per recursive.
type RootResult struct {
	// PerLetter[i] is the ECDF of queries per recursive at letter i.
	PerLetter []*stats.ECDF
	// All is the distribution across all letters combined.
	All *stats.ECDF
	// FracSingleObserved is the measured fraction of single-query
	// recursives across all letters.
	FracSingleObserved float64
	// MaxObserved is the heaviest single recursive.
	MaxObserved int
	// FracAtLeast5PerLetter reports, per letter, the fraction of its
	// recursives sending 5+ queries (the paper's F- vs H-root spread).
	FracAtLeast5PerLetter []float64
}

// RunRoot synthesizes the day of nl DS queries from seed and computes
// Figure 5.
func RunRoot(seed int64) *RootResult {
	rng := lazyrand.New(seed)
	alpha := float64(rootTailAlpha)

	// Letter preference skew: recursives spread retries and
	// over-querying unevenly over letters (F "friendliest", H "worst").
	letterBias := make([]float64, rootLetters)
	for i := range letterBias {
		// Biases in [0.6, 1.5]: letter 0 plays F-root, the last plays H.
		letterBias[i] = 0.6 + 0.9*float64(i)/float64(rootLetters-1)
	}

	perLetterCounts := make([][]float64, rootLetters)
	var allCounts []float64
	single, total := 0, 0
	maxObserved := 0

	for i := 0; i < rootResolvers; i++ {
		// Total queries for the day from this recursive.
		n := 1
		if rng.Float64() >= rootFracSingle {
			// Pareto tail: n = ceil(x), x >= 2.
			x := 2.0 / math.Pow(rng.Float64(), 1/alpha)
			if x > rootMaxQueries {
				x = rootMaxQueries
			}
			n = int(math.Ceil(x))
		}
		total++
		if n == 1 {
			single++
		}
		if n > maxObserved {
			maxObserved = n
		}
		// Spread the n queries over letters with the bias weights.
		counts := make([]int, rootLetters)
		if n == 1 {
			counts[rng.Intn(rootLetters)] = 1
		} else {
			weights := make([]float64, rootLetters)
			sum := 0.0
			for l := range weights {
				weights[l] = letterBias[l] * (0.5 + rng.Float64())
				sum += weights[l]
			}
			for q := 0; q < n; q++ {
				r := rng.Float64() * sum
				for l := range weights {
					r -= weights[l]
					if r <= 0 {
						counts[l]++
						break
					}
				}
			}
		}
		for l, c := range counts {
			if c > 0 {
				perLetterCounts[l] = append(perLetterCounts[l], float64(c))
			}
		}
		allCounts = append(allCounts, float64(n))
	}

	res := &RootResult{
		All:                stats.NewECDF(allCounts),
		FracSingleObserved: float64(single) / float64(total),
		MaxObserved:        maxObserved,
	}
	for l := 0; l < rootLetters; l++ {
		counts := perLetterCounts[l]
		res.PerLetter = append(res.PerLetter, stats.NewECDF(counts))
		atLeast5 := 0
		for _, c := range counts {
			if c >= 5 {
				atLeast5++
			}
		}
		frac := 0.0
		if len(counts) > 0 {
			frac = float64(atLeast5) / float64(len(counts))
		}
		res.FracAtLeast5PerLetter = append(res.FracAtLeast5PerLetter, frac)
	}
	sort.Float64s(res.FracAtLeast5PerLetter)
	return res
}
