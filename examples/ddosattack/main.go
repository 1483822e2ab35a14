// DDoS attack scenario: emulate the paper's Experiment H — a 90% packet
// loss attack on both authoritatives of a zone with 30-minute TTLs — and
// print the client experience round by round, then sweep the attack
// intensity to find where the dike breaks.
package main

import (
	"context"
	"fmt"
	"log"

	dikes "repro"
)

// run emulates one attack on a population of probes vantage probes.
func run(spec dikes.DDoSSpec, probes int) *dikes.DDoSResult {
	out, err := dikes.Run(context.Background(), dikes.DDoSScenario(spec),
		dikes.RunConfig{Probes: probes, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	return out.DDoS
}

func main() {
	spec, ok := dikes.SpecByName("H")
	if !ok {
		panic("experiment H missing")
	}
	fmt.Printf("Experiment %s: %.0f%% loss on both authoritatives, TTL %d s\n",
		spec.Name, spec.Loss*100, spec.TTL)
	fmt.Printf("attack from minute %.0f for %.0f minutes\n\n",
		spec.DDoSStart.Minutes(), spec.DDoSDur.Minutes())

	res := run(spec, 600)

	fmt.Println("client-side answers per 10-minute round:")
	fmt.Print(res.Answers.Table([]string{"OK", "SERVFAIL", "NoAnswer"}))

	fmt.Printf("\nfailure rate before the attack:  %5.1f%%\n", 100*res.FailureRate(4))
	fmt.Printf("failure rate during the attack:  %5.1f%%\n", 100*res.FailureRate(9))
	fmt.Printf("median latency before/during:    %4.0f ms / %4.0f ms\n",
		res.Latency[4].Median, res.Latency[9].Median)
	fmt.Printf("p90 latency before/during:       %4.0f ms / %4.0f ms\n",
		res.Latency[4].P90, res.Latency[9].P90)

	// Sweep the attack intensity: the paper's headline is that caching
	// and retries hold the line until loss gets extreme.
	fmt.Println("\nsweeping attack intensity (TTL 1800 s, both NSes):")
	fmt.Printf("%8s %12s\n", "loss", "failures")
	for _, loss := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0} {
		s := spec
		s.Name = fmt.Sprintf("sweep-%.0f", loss*100)
		s.Loss = loss
		r := run(s, 400)
		fmt.Printf("%7.0f%% %11.1f%%\n", loss*100, 100*r.FailureRate(9))
	}
}
