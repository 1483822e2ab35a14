// Authserver: run a real authoritative DNS server on a UDP socket with
// the library's engine, query it with the library's stub resolver, and
// emulate a DDoS against it — all in one process. This is the paper's
// testbed (§5.1) in miniature, on real sockets instead of the simulator.
package main

import (
	"fmt"
	"time"

	dikes "repro"
	"repro/internal/lazyrand"
	"repro/internal/udprun"
)

const zoneText = `
$ORIGIN cachetest.nl.
$TTL 1800
@    IN SOA ns1 hostmaster 1 7200 3600 864000 60
@    IN NS  ns1
ns1  IN A    127.0.0.1
1414 IN AAAA fd0f:3897:faf7:a375:1:586::3c
`

func main() {
	z, err := dikes.ParseZoneString(zoneText, "")
	if err != nil {
		panic(err)
	}
	srv := dikes.NewAuthoritative(z)

	// Authoritative on a real UDP socket, with a drop probability we can
	// turn into a DDoS (the paper's iptables emulation).
	loss := 0.0
	rng := lazyrand.New(1)
	authLoop := udprun.NewLoop()
	go authLoop.Run()
	authConn, err := udprun.Listen("127.0.0.1:0", authLoop)
	if err != nil {
		panic(err)
	}
	go authConn.Serve(func(src dikes.Addr, payload []byte) {
		if loss > 0 && rng.Float64() < loss {
			return
		}
		if out := srv.HandleWire(payload); out != nil {
			authConn.Send(src, out)
		}
	})
	fmt.Printf("authoritative for cachetest.nl on %s\n\n", authConn.Addr())

	// A stub client with 1 s timeout and 2 retries.
	cliLoop := udprun.NewLoop()
	go cliLoop.Run()
	cliConn, err := udprun.Listen("127.0.0.1:0", cliLoop)
	if err != nil {
		panic(err)
	}
	client := dikes.NewStub(udprun.Clock{Loop: cliLoop},
		dikes.StubConfig{Timeout: time.Second, Retries: 2})
	client.SetConn(cliConn)
	go cliConn.Serve(client.Receive)

	query := func() (ok bool, rtt time.Duration) {
		done := make(chan dikes.StubResult, 1)
		cliLoop.Post(func() {
			client.Query(authConn.Addr(), "1414.cachetest.nl.", dikes.TypeAAAA,
				func(r dikes.StubResult) { done <- r })
		})
		r := <-done
		return r.Err == nil, r.RTT
	}

	run := func(label string, n int) {
		okCount := 0
		var total time.Duration
		for i := 0; i < n; i++ {
			ok, rtt := query()
			if ok {
				okCount++
				total += rtt
			}
		}
		mean := time.Duration(0)
		if okCount > 0 {
			mean = total / time.Duration(okCount)
		}
		fmt.Printf("%-24s answered %2d/%2d, mean RTT %v\n", label, okCount, n, mean.Round(10*time.Microsecond))
	}

	run("normal operation:", 20)
	loss = 0.5
	run("DDoS with 50% loss:", 20)
	loss = 0.9
	run("DDoS with 90% loss:", 20)
	loss = 1.0
	run("complete failure:", 5)

	fmt.Println("\nwith 2 retries per query, the stub shrugs off 50% loss — the")
	fmt.Println("paper's §5.4 finding that retries plus caching mask moderate DDoS.")
}
