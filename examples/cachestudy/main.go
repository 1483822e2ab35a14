// Cache study: the paper's §3 question — "from a user point-of-view, can
// we rely on recursive caching?" — answered on a small emulated vantage
// point population, for a sweep of TTLs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	dikes "repro"
)

func main() {
	fmt.Println("warm-cache behavior by TTL (600 probes, 20-minute probing):")
	fmt.Printf("%8s %8s %8s %8s %8s %9s %12s\n",
		"TTL", "AA", "CC", "AC", "CA", "miss", "TTL-altered")

	var results []*dikes.CachingResult
	for _, ttl := range []uint32{60, 1800, 3600, 86400} {
		out, err := dikes.Run(context.Background(), dikes.CachingScenario(), dikes.RunConfig{
			Probes: 600, TTL: ttl,
			ProbeInterval: 20 * time.Minute, Rounds: 6, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		res := out.Caching
		results = append(results, res)
		warm := res.Table2.WarmupTTLZone + res.Table2.WarmupTTLAltered
		altered := 0.0
		if warm > 0 {
			altered = float64(res.Table2.WarmupTTLAltered) / float64(warm)
		}
		fmt.Printf("%8d %8d %8d %8d %8d %8.1f%% %11.1f%%\n",
			ttl, res.Table2.AA, res.Table2.CC, res.Table2.AC, res.Table2.CA,
			100*res.MissRate, 100*altered)
	}

	fmt.Println("\nwhere do the cache misses come from? (TTL 3600 run)")
	t3 := results[2].Table3
	fmt.Printf("  total AC answers:        %d\n", t3.ACAnswers)
	fmt.Printf("  via public resolvers:    %d (Google-like: %d, other: %d)\n",
		t3.PublicR1, t3.GoogleR1, t3.OtherPublicR1)
	fmt.Printf("  via non-public paths:    %d (of which %d emerged from Google backends)\n",
		t3.NonPublicR1, t3.GoogleRn)

	fmt.Println("\npaper comparison: ~30% misses, about half via public farms,")
	fmt.Println("TTL truncation rare below one hour and ~30% at one day.")
}
