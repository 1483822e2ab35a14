// Command authd serves one or more DNS zones authoritatively over real
// UDP, using the same engine the simulations run. It can also emulate a
// DDoS on itself by dropping a fraction of inbound queries, so the
// paper's client-side experiments can be tried against live software:
//
//	authd -listen :5300 -zone cachetest.nl.zone -origin cachetest.nl
//	authd -listen :5300 -zone z1.zone -zone z2.zone -loss 0.9
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/authoritative"
	"repro/internal/dnswire"
	"repro/internal/lazyrand"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/udprun"
	"repro/internal/zone"
)

type zoneFlags []string

func (z *zoneFlags) String() string     { return fmt.Sprint(*z) }
func (z *zoneFlags) Set(v string) error { *z = append(*z, v); return nil }

func main() {
	var zoneFiles zoneFlags
	listen := flag.String("listen", ":5300", "UDP listen address")
	tcp := flag.Bool("tcp", true, "also serve DNS over TCP on the same address")
	axfr := flag.Bool("axfr", false, "allow zone transfers (AXFR) over TCP")
	origin := flag.String("origin", "", "default origin for zone files without $ORIGIN")
	loss := flag.Float64("loss", 0, "fraction of inbound queries to drop (DDoS emulation)")
	seed := flag.Int64("seed", 1, "seed for the loss coin")
	flag.Var(&zoneFiles, "zone", "zone file in master format (repeatable)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.Parse()

	if len(zoneFiles) == 0 {
		fmt.Fprintln(os.Stderr, "authd: at least one -zone file is required")
		flag.Usage()
		os.Exit(2)
	}
	if *loss < 0 || *loss > 1 {
		log.Fatalf("authd: -loss %v out of range [0,1]", *loss)
	}
	var zones []*zone.Zone
	for _, file := range zoneFiles {
		start := time.Now()
		f, err := os.Open(file)
		if err != nil {
			log.Fatalf("authd: %v", err)
		}
		z, err := zone.Parse(f, *origin)
		f.Close()
		if err != nil {
			log.Fatalf("authd: %s: %v", file, err)
		}
		zones = append(zones, z)
		log.Printf("loaded zone %s (%d records) from %s in %v", z.Origin(), z.Len(), file, time.Since(start).Round(time.Microsecond))
	}

	// SIGINT or SIGTERM stops the daemon: Serve returns, the loop closes
	// and the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := authoritative.New(zones...)
	if *pprofAddr != "" {
		addr, _, err := telemetry.Serve(*pprofAddr, func() metrics.Snapshot {
			reg := metrics.NewRegistry()
			srv.CollectMetrics(reg.Scope("authoritative"))
			return reg.Snapshot()
		})
		if err != nil {
			log.Fatalf("authd: pprof listen: %v", err)
		}
		log.Printf("authd: telemetry at http://%s/metrics and /debug/pprof/", addr)
	}
	loop := udprun.NewLoop()
	conn, err := udprun.Listen(*listen, loop)
	if err != nil {
		log.Fatalf("authd: %v", err)
	}
	rng := lazyrand.New(*seed)
	log.Printf("authoritative listening on %s (inbound loss %.0f%%)", conn.Addr(), *loss*100)

	if *tcp {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("authd: tcp: %v", err)
		}
		log.Printf("also serving TCP on %s (axfr: %v)", ln.Addr(), *axfr)
		go func() {
			err := udprun.ServeTCPStream(ln, func(payload []byte) [][]byte {
				if *axfr {
					if q, err := dnswire.Unpack(payload); err == nil {
						if msgs := srv.HandleAXFR(q); msgs != nil {
							var frames [][]byte
							for _, m := range msgs {
								if wire, err := m.Pack(); err == nil {
									frames = append(frames, wire)
								}
							}
							return frames
						}
					}
				}
				if out := srv.HandleWireTCP(payload); out != nil {
					return [][]byte{out}
				}
				return nil
			})
			if err != nil {
				log.Printf("authd: tcp serve ended: %v", err)
			}
		}()
	}

	served := make(chan error, 1)
	go func() {
		var buf []byte // the one response buffer; the handler runs under the loop lock
		served <- conn.Serve(func(src netsim.Addr, payload []byte) {
			if *loss > 0 && rng.Float64() < *loss {
				return // emulated DDoS drop
			}
			if out := srv.HandleWireAppend(buf[:0], payload); out != nil {
				conn.Send(src, out)
				buf = out
			}
		})
	}()
	select {
	case <-ctx.Done():
		conn.Close()
		log.Printf("authd: signalled; serve loop ended: %v", <-served)
		loop.Close()
	case err := <-served:
		loop.Close()
		log.Fatalf("authd: serve loop ended: %v", err)
	}
}
