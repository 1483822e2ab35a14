// Command recursived runs the caching recursive resolver engine on real
// UDP. It resolves iteratively from the configured root hints, or
// forwards to upstream resolvers, with the same cache/retry/serve-stale
// behavior the simulations study:
//
//	recursived -listen :5301 -hint 127.0.0.1:5300
//	recursived -listen :5301 -forward 127.0.0.1:5302 -forward 127.0.0.1:5303
//	recursived -listen :5301 -hint 127.0.0.1:5300 -serve-stale -max-ttl 1h
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/telemetry"
	"repro/internal/udprun"
)

type addrFlags []string

func (a *addrFlags) String() string     { return fmt.Sprint(*a) }
func (a *addrFlags) Set(v string) error { *a = append(*a, v); return nil }

// clientTimeout is the resolver's deadline for answering a client query.
const clientTimeout = 8 * time.Second

// cacheEntries caps each cache shard, least recently used evicted first.
// A one-record entry costs ~144 heap bytes (TestEntryBytes in
// internal/cache), so a shard's cache stays near 144 MiB.
const cacheEntries = 1 << 20

// tcpBridge returns the ServeTCP handler that answers a query through
// the engine: the connection's goroutine hands it to handle under the
// loop lock and waits for the response callback. The engine answers every
// query within its client timeout; should it not (the loop closed, a
// callback lost), the wait ends after wait with SERVFAIL, so no query
// parks its connection's goroutine forever.
func tcpBridge(loop *udprun.Loop, handle func(*dnswire.Message, func(*dnswire.Message)), wait time.Duration) func([]byte) []byte {
	return func(payload []byte) []byte {
		q, err := dnswire.Unpack(payload)
		if err != nil || q.Response {
			return nil
		}
		ch := make(chan []byte, 1)
		loop.Post(func() {
			handle(q, func(m *dnswire.Message) {
				wire, _ := m.Pack() // ServeTCP skips a nil message
				ch <- wire
			})
		})
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case wire := <-ch:
			return wire
		case <-t.C:
			resp := dnswire.NewResponse(q)
			resp.RecursionAvailable = true
			resp.RCode = dnswire.RCodeServFail
			wire, _ := resp.Pack()
			return wire
		}
	}
}

func main() {
	var hints, forwards addrFlags
	listen := flag.String("listen", ":5301", "UDP listen address")
	tcp := flag.Bool("tcp", true, "also serve DNS over TCP on the same address")
	serveStale := flag.Bool("serve-stale", false, "answer with expired data when upstreams fail")
	maxTTL := flag.Duration("max-ttl", 0, "cap cached TTLs (0 = honor zone TTLs)")
	minTTL := flag.Duration("min-ttl", 0, "floor for cached TTLs")
	shards := flag.Int("shards", 1, "independent cache shards (fragmentation emulation)")
	attempts := flag.Int("attempts", 0, "upstream tries per fetch (0 = default)")
	harvest := flag.Bool("harvest", false, "background-fetch NS records of learned zones (Unbound-like)")
	flag.Var(&hints, "hint", "root hint ip:port (repeatable)")
	flag.Var(&forwards, "forward", "upstream resolver ip:port; enables forwarding mode (repeatable)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.Parse()

	if len(hints) == 0 && len(forwards) == 0 {
		fmt.Fprintln(os.Stderr, "recursived: need -hint or -forward")
		flag.Usage()
		os.Exit(2)
	}
	cfg := recursive.Config{
		Cache: cache.Config{
			MaxTTL: *maxTTL, MinTTL: *minTTL, Shards: *shards,
			Capacity: cacheEntries,
		},
		ServeStale:    *serveStale,
		MaxAttempts:   *attempts,
		ClientTimeout: clientTimeout,
		Seed:          time.Now().UnixNano(),
	}
	if *harvest {
		cfg.Harvest = recursive.HarvestFull
	}
	for _, h := range hints {
		cfg.RootHints = append(cfg.RootHints, recursive.ServerHint{
			Name: "hint." + h + ".", Addr: netsim.Addr(h),
		})
	}
	for _, f := range forwards {
		cfg.Forwarders = append(cfg.Forwarders, netsim.Addr(f))
	}

	loop := udprun.NewLoop()
	conn, err := udprun.Listen(*listen, loop)
	if err != nil {
		log.Fatalf("recursived: %v", err)
	}
	res := recursive.NewResolver(udprun.Clock{Loop: loop}, cfg)
	res.SetConn(conn)

	if *pprofAddr != "" {
		// Resolver counters are atomics, so the scrape handler may read
		// them from its own goroutine while the engine loop runs.
		addr, _, err := telemetry.Serve(*pprofAddr, func() metrics.Snapshot {
			reg := metrics.NewRegistry()
			res.CollectMetrics(reg.Scope("resolver"))
			res.Cache().CollectMetrics(reg.Scope("cache"))
			return reg.Snapshot()
		})
		if err != nil {
			log.Fatalf("recursived: pprof listen: %v", err)
		}
		log.Printf("recursived: telemetry at http://%s/metrics and /debug/pprof/", addr)
	}

	mode := "iterative"
	if len(forwards) > 0 {
		mode = "forwarding"
	}
	log.Printf("recursive resolver (%s) listening on %s", mode, conn.Addr())

	if *tcp {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("recursived: tcp: %v", err)
		}
		log.Printf("also serving TCP on %s", ln.Addr())
		go func() {
			err := udprun.ServeTCP(ln, tcpBridge(loop, res.HandleQuery, clientTimeout+time.Second))
			if err != nil {
				log.Printf("recursived: tcp serve ended: %v", err)
			}
		}()
	}

	go func() {
		err := conn.Serve(res.Receive)
		log.Printf("recursived: serve loop ended: %v", err)
		loop.Close()
	}()

	// Periodic stats line.
	go func() {
		for {
			time.Sleep(30 * time.Second)
			loop.Post(func() {
				s := res.Stats()
				log.Printf("stats: client=%d hits=%d misses=%d upstream=%d retries=%d stale=%d servfail=%d",
					s.ClientQueries, s.CacheHits, s.CacheMisses,
					s.UpstreamQueries, s.UpstreamRetries, s.StaleServes, s.ServFails)
			})
		}
	}()
	loop.Run()
}
