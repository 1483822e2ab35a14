// Command recursived runs the caching recursive resolver engine on real
// UDP. It resolves iteratively from the configured root hints, or
// forwards to upstream resolvers, with the same cache/retry/serve-stale
// behavior the simulations study:
//
//	recursived -listen :5301 -hint 127.0.0.1:5300
//	recursived -listen :5301 -forward 127.0.0.1:5302 -forward 127.0.0.1:5303
//	recursived -listen :5301 -hint 127.0.0.1:5300 -serve-stale -max-ttl 1h
//	recursived -listen :5301 -hint 127.0.0.1:5300 -profile unbound
//
// -profile names a row of the simulator's resolver profile table, so the
// daemon runs the same timing, retries and harvest as that kind of
// resolver in a simulation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
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

// daemon is what the command line asks for: the resolver's behaviour and
// the daemon's own settings.
type daemon struct {
	cfg    recursive.Config
	listen string
	tcp    bool
	pprof  string
}

// parseFlags reads the command line into a daemon; a usage error is
// reported on fs's output and returned.
func parseFlags(fs *flag.FlagSet, args []string) (*daemon, error) {
	var hints, forwards addrFlags
	d := &daemon{}
	fs.StringVar(&d.listen, "listen", ":5301", "UDP listen address")
	fs.BoolVar(&d.tcp, "tcp", true, "also serve DNS over TCP on the same address")
	serveStale := fs.Bool("serve-stale", false, "answer with expired data when upstreams fail")
	maxTTL := fs.Duration("max-ttl", 0, "cap cached TTLs (0 = honor zone TTLs)")
	minTTL := fs.Duration("min-ttl", 0, "floor for cached TTLs")
	shards := fs.Int("shards", 1, "independent cache shards (fragmentation emulation)")
	profile := fs.String("profile", "default", "resolver profile: timeouts, tries per fetch, work budget, harvest (one of "+
		strings.Join(recursive.ProfileNames(), ", ")+")")
	harvest := fs.Bool("harvest", false, "background-fetch the NS, A and AAAA records of learned zones' nameservers, whatever the profile's harvest")
	fs.Var(&hints, "hint", "root hint ip:port (repeatable)")
	fs.Var(&forwards, "forward", "upstream resolver ip:port; enables forwarding mode (repeatable)")
	fs.StringVar(&d.pprof, "pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	fail := func(msg string) (*daemon, error) {
		fmt.Fprintln(fs.Output(), "recursived: "+msg)
		fs.Usage()
		return nil, errors.New(msg)
	}
	if len(hints) == 0 && len(forwards) == 0 {
		return fail("need -hint or -forward")
	}
	cfg, ok := recursive.Profile(*profile)
	if !ok {
		return fail("no profile " + *profile)
	}
	cfg.Cache = cache.Config{
		MaxTTL: *maxTTL, MinTTL: *minTTL, Shards: *shards,
		Capacity: cacheEntries,
	}
	cfg.ServeStale = cfg.ServeStale || *serveStale
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
	d.cfg = cfg
	return d, nil
}

func main() {
	d, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	cfg := &d.cfg

	// SIGINT or SIGTERM stops the daemon: Serve returns, the stats line
	// is logged one last time, the loop closes and the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	loop := udprun.NewLoop()
	conn, err := udprun.Listen(d.listen, loop)
	if err != nil {
		log.Fatalf("recursived: %v", err)
	}
	res := recursive.New(udprun.Clock{Loop: loop}, cfg, time.Now().UnixNano())
	res.SetConn(conn)

	if d.pprof != "" {
		// Resolver counters are atomics, so the scrape handler may read
		// them from its own goroutine while the engine loop runs.
		addr, _, err := telemetry.Serve(d.pprof, func() metrics.Snapshot {
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
	if len(cfg.Forwarders) > 0 {
		mode = "forwarding"
	}
	log.Printf("recursive resolver (%s) listening on %s", mode, conn.Addr())

	if d.tcp {
		ln, err := net.Listen("tcp", d.listen)
		if err != nil {
			log.Fatalf("recursived: tcp: %v", err)
		}
		log.Printf("also serving TCP on %s", ln.Addr())
		go func() {
			err := udprun.ServeTCP(ln, tcpBridge(loop, res.HandleQuery, cfg.ClientTimeout+time.Second))
			if err != nil {
				log.Printf("recursived: tcp serve ended: %v", err)
			}
		}()
	}

	served := make(chan error, 1)
	go func() { served <- conn.Serve(res.Receive) }()

	logStats := func() {
		s := res.Stats()
		log.Printf("stats: client=%d hits=%d misses=%d upstream=%d retries=%d stale=%d servfail=%d",
			s.ClientQueries, s.CacheHits, s.CacheMisses,
			s.UpstreamQueries, s.UpstreamRetries, s.StaleServes, s.ServFails)
	}
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			loop.Post(logStats)
		case <-ctx.Done():
			conn.Close()
			log.Printf("recursived: signalled; serve loop ended: %v", <-served)
			loop.Post(logStats)
			loop.Close()
			return
		case err := <-served:
			loop.Close()
			log.Fatalf("recursived: serve loop ended: %v", err)
		}
	}
}
