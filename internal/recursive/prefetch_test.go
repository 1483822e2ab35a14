package recursive

import (
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// TestPrefetchKeepsEntryWarm: with prefetch on, a name queried every
// 40 s with a 60 s TTL is refreshed in the background before expiry, so
// every client answer is a cache hit after the first.
func TestPrefetchKeepsEntryWarm(t *testing.T) {
	w := newWorld(t, Config{Prefetch: 0.5})
	query := func() Result {
		var got Result
		w.res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { got = r })
		w.clk.RunFor(time.Second)
		return got
	}
	query() // warm (TTL 60)
	misses := w.res.Stats().CacheMisses
	for i := 0; i < 5; i++ {
		w.clk.RunFor(35 * time.Second)
		if res := query(); !res.FromCache {
			t.Fatalf("query %d missed the cache despite prefetch", i)
		}
	}
	if got := w.res.Stats().CacheMisses; got != misses {
		t.Errorf("cache misses grew %d -> %d", misses, got)
	}
	// And the prefetches actually reached the authoritatives.
	if got := w.ns1.Stats().Queries + w.ns2.Stats().Queries; got < 3 {
		t.Errorf("authoritative saw %d queries, want prefetch refreshes", got)
	}
}

// TestForwarderPrefetchForwards: a caching forwarder's prefetch goes to
// its forwarders like its misses do. Its refresh carries the upstream's
// remaining TTL, so hits are not asserted; that the refresh reached the
// upstream is.
func TestForwarderPrefetchForwards(t *testing.T) {
	w := newWorld(t, Config{})
	r1 := NewResolver(w.clk, Config{Forwarders: []netsim.Addr{resAddr}, Prefetch: 0.5})
	r1.Attach(w.net, "10.0.0.1")
	for i := 0; i < 6; i++ {
		var done bool
		r1.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(Result) { done = true })
		w.clk.RunFor(35 * time.Second)
		if !done {
			t.Fatalf("query %d never completed", i)
		}
	}
	st := r1.Stats()
	t.Logf("%d upstream queries for %d misses", st.UpstreamQueries, st.CacheMisses)
	if st.UpstreamQueries <= st.CacheMisses {
		t.Errorf("%d upstream queries for %d misses: no prefetch was forwarded", st.UpstreamQueries, st.CacheMisses)
	}
	if got := w.res.Stats().ClientQueries; got != st.UpstreamQueries {
		t.Errorf("upstream saw %d queries, the forwarder sent %d", got, st.UpstreamQueries)
	}
}

// TestPrefetchDisabledExpires: the same pacing without prefetch misses
// after the TTL.
func TestPrefetchDisabledExpires(t *testing.T) {
	w := newWorld(t, Config{})
	query := func() Result {
		var got Result
		w.res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { got = r })
		w.clk.RunFor(time.Second)
		return got
	}
	query() // warm (TTL 60); one second of clock burned
	w.clk.RunFor(40 * time.Second)
	if res := query(); !res.FromCache {
		t.Fatal("hit expected at ~41s of 60s TTL")
	}
	w.clk.RunFor(40 * time.Second) // ~82s: past expiry of the original entry
	if res := query(); res.FromCache {
		t.Error("entry should have expired without prefetch")
	}
}

// TestPrefetchExtendsDDoSSurvival: an extension beyond the paper — a
// prefetching resolver that was being queried regularly enters the attack
// with a fresher cache.
func TestPrefetchExtendsDDoSSurvival(t *testing.T) {
	survivalWith := func(prefetch float64) time.Duration {
		w := newWorld(t, Config{Prefetch: prefetch})
		// Query every 40 s for 10 minutes, then total outage.
		for i := 0; i < 15; i++ {
			w.resolve(t, "9999.cachetest.nl.", dnswire.TypeAAAA) // TTL 1800
			w.clk.RunFor(40 * time.Second)
		}
		w.net.SetInboundLoss(ns1Addr, 1)
		w.net.SetInboundLoss(ns2Addr, 1)
		start := w.clk.Now()
		for {
			res := w.resolve(t, "9999.cachetest.nl.", dnswire.TypeAAAA)
			if res.ServFail {
				return w.clk.Now().Sub(start)
			}
			w.clk.RunFor(time.Minute)
			if w.clk.Now().Sub(start) > 2*time.Hour {
				return 2 * time.Hour
			}
		}
	}
	plain := survivalWith(0)
	prefetched := survivalWith(0.9)
	if prefetched <= plain {
		t.Errorf("prefetch survival %v <= plain %v", prefetched, plain)
	}
}
