package cache

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/dnswire"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func rrA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.A{Addr: dnswire.MustAddr(ip)}}
}

func keyA(name string) Key { return Key{Name: name, Type: dnswire.TypeA} }

func TestGetMissThenHit(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	k := keyA("a.example.nl.")
	if v := c.Get(k, 0); v.Hit {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	v := c.Get(k, 0)
	if !v.Hit || len(v.Records) != 1 {
		t.Fatalf("view = %+v", v)
	}
	if v.Records[0].TTL != 300 {
		t.Errorf("TTL = %d, want 300", v.Records[0].TTL)
	}
}

func TestTTLDecrementsAndExpires(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	k := keyA("a.example.nl.")
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	clk.RunFor(100 * time.Second)
	if v := c.Get(k, 0); !v.Hit || v.Records[0].TTL != 200 {
		t.Fatalf("after 100s: %+v", v)
	}
	clk.RunFor(200 * time.Second)
	if v := c.Get(k, 0); v.Hit {
		t.Error("hit at exact expiry")
	}
}

func TestTTLCapAndFloor(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{MaxTTL: 60 * time.Second, MinTTL: 10 * time.Second})
	kLong := keyA("long.example.nl.")
	c.Put(kLong, Entry{Records: []dnswire.RR{rrA("long.example.nl.", 86400, "10.0.0.1")}, Rank: RankAnswer}, 0)
	if v := c.Get(kLong, 0); v.Records[0].TTL != 60 {
		t.Errorf("capped TTL = %d, want 60", v.Records[0].TTL)
	}
	kShort := keyA("short.example.nl.")
	c.Put(kShort, Entry{Records: []dnswire.RR{rrA("short.example.nl.", 1, "10.0.0.2")}, Rank: RankAnswer}, 0)
	if v := c.Get(kShort, 0); v.Records[0].TTL != 10 {
		t.Errorf("floored TTL = %d, want 10", v.Records[0].TTL)
	}
}

func TestRRSetUsesMinimumTTL(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	k := keyA("multi.example.nl.")
	c.Put(k, Entry{Records: []dnswire.RR{
		rrA("multi.example.nl.", 300, "10.0.0.1"),
		rrA("multi.example.nl.", 100, "10.0.0.2"),
	}, Rank: RankAnswer}, 0)
	clk.RunFor(150 * time.Second)
	if v := c.Get(k, 0); v.Hit {
		t.Error("RRset should expire at its minimum TTL")
	}
}

func TestCredibilityRanking(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	k := keyA("ns1.example.nl.")
	// Glue arrives first with a long TTL (parent side, Appendix A).
	c.Put(k, Entry{Records: []dnswire.RR{rrA("ns1.example.nl.", 172800, "10.0.0.1")}, Rank: RankAdditional}, 0)
	// Authoritative answer with the child's shorter TTL replaces it.
	c.Put(k, Entry{Records: []dnswire.RR{rrA("ns1.example.nl.", 3600, "10.0.0.1")}, Rank: RankAnswer}, 0)
	if v := c.Get(k, 0); v.Records[0].TTL != 3600 || v.Rank != RankAnswer {
		t.Fatalf("authoritative answer did not replace glue: %+v", v)
	}
	// Later glue must not clobber the authoritative answer.
	c.Put(k, Entry{Records: []dnswire.RR{rrA("ns1.example.nl.", 172800, "10.0.0.9")}, Rank: RankAdditional}, 0)
	v := c.Get(k, 0)
	if v.Rank != RankAnswer || v.Records[0].TTL > 3600 {
		t.Fatalf("glue overwrote authoritative data: %+v", v)
	}
	// But once expired, lower-rank data may take over.
	clk.RunFor(3601 * time.Second)
	c.Put(k, Entry{Records: []dnswire.RR{rrA("ns1.example.nl.", 172800, "10.0.0.9")}, Rank: RankAdditional}, 0)
	if v := c.Get(k, 0); !v.Hit || v.Rank != RankAdditional {
		t.Fatalf("glue rejected after expiry: %+v", v)
	}
}

func TestNegativeCaching(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	soa := dnswire.RR{Name: "example.nl.", Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.SOA{MName: "ns1.example.nl.", RName: "h.example.nl.", Minimum: 60}}
	k := Key{Name: "nope.example.nl.", Type: dnswire.TypeAAAA}
	c.Put(k, Entry{Negative: true, NXDomain: true, SOA: soa, Rank: RankAnswer}, 0)
	v := c.Get(k, 0)
	if !v.Hit || !v.Negative || !v.NXDomain {
		t.Fatalf("view = %+v", v)
	}
	if v.SOA.TTL != 60 {
		t.Errorf("negative TTL = %d, want 60", v.SOA.TTL)
	}
	clk.RunFor(61 * time.Second)
	if v := c.Get(k, 0); v.Hit {
		t.Error("negative entry outlived SOA minimum")
	}
}

func TestNegativeTTLUsesSOATTLWhenSmaller(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	soa := dnswire.RR{Name: "example.nl.", Class: dnswire.ClassIN, TTL: 30,
		Data: dnswire.SOA{Minimum: 3600}}
	k := Key{Name: "nope.example.nl.", Type: dnswire.TypeA}
	c.Put(k, Entry{Negative: true, SOA: soa, Rank: RankAnswer}, 0)
	if v := c.Get(k, 0); v.SOA.TTL != 30 {
		t.Errorf("negative TTL = %d, want 30 (min of SOA TTL and Minimum)", v.SOA.TTL)
	}
}

func TestServeStale(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{ServeStale: true, StaleWindow: 30 * time.Minute})
	k := keyA("a.example.nl.")
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 60, "10.0.0.1")}, Rank: RankAnswer}, 0)
	clk.RunFor(10 * time.Minute)
	if v := c.Get(k, 0); v.Hit {
		t.Fatal("plain Get returned expired data")
	}
	v := c.GetStale(k, 0)
	if !v.Hit || !v.Stale {
		t.Fatalf("GetStale = %+v", v)
	}
	if v.Records[0].TTL != 0 {
		t.Errorf("stale TTL = %d, want 0 (serve-stale draft)", v.Records[0].TTL)
	}
	clk.RunFor(25 * time.Minute) // beyond the stale window
	if v := c.GetStale(k, 0); v.Hit {
		t.Error("stale data served past the window")
	}
}

func TestServeStaleDisabled(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	k := keyA("a.example.nl.")
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 60, "10.0.0.1")}, Rank: RankAnswer}, 0)
	clk.RunFor(2 * time.Minute)
	if v := c.GetStale(k, 0); v.Hit {
		t.Error("GetStale returned data with serve-stale disabled")
	}
}

func TestLRUCapacity(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{Capacity: 2})
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("h%d.example.nl.", i)
		c.Put(keyA(name), Entry{Records: []dnswire.RR{rrA(name, 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v := c.Get(keyA("h0.example.nl."), 0); v.Hit {
		t.Error("oldest entry not evicted")
	}
	// Touching h1 makes h2 the eviction candidate.
	c.Get(keyA("h1.example.nl."), 0)
	c.Put(keyA("h3.example.nl."), Entry{Records: []dnswire.RR{rrA("h3.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	if v := c.Get(keyA("h1.example.nl."), 0); !v.Hit {
		t.Error("recently used entry evicted")
	}
	if v := c.Get(keyA("h2.example.nl."), 0); v.Hit {
		t.Error("LRU entry survived")
	}
}

// TestSmallCachesBytes pins what a cell's many small caches cost: 4 096
// caches on one arena, each holding the nine one-record sets of an
// experiment-H direct resolver, at ≤ 160 live heap bytes per entry
// (TestEntryBytes's bound), node and buckets counted, the caches
// themselves not. 143.6 B measured; 254.9 while each shard kept its own
// slab, reserved 4 → 8 → 16 nodes for nine.
func TestSmallCachesBytes(t *testing.T) {
	const n, per = 1 << 12, 9
	var keys [per]Key
	var entries [per]Entry
	for i := range keys {
		name := fmt.Sprintf("h%d.example.nl.", i)
		keys[i] = keyA(name)
		entries[i] = Entry{Records: []dnswire.RR{rrA(name, 300, "10.0.0.1")}, Rank: RankAnswer}
	}
	clk := clock.NewVirtual(epoch)
	var arena Arena
	var cfg Config
	caches := make([]Cache, n)
	for i := range caches {
		caches[i].Init(clk, &cfg, false)
		caches[i].UseArena(&arena)
	}
	before := liveHeap()
	for i := range caches {
		for j := range keys {
			caches[i].Put(keys[j], entries[j], 0)
		}
	}
	after := liveHeap()
	b := float64(int64(after)-int64(before)) / (n * per)
	if b > 160 {
		t.Errorf("an entry of a small cache costs %.1f heap bytes, want ≤ 160", b)
	}
	t.Logf("an entry of a small cache costs %.1f heap bytes", b)
	runtime.KeepAlive(caches)
}

// TestFlushRefillsFromArena: Flush and FlushShard hand every node back to
// the arena and keep the buckets, so refilling the same keys allocates
// nothing and carves no new node.
func TestFlushRefillsFromArena(t *testing.T) {
	const k = 40
	keys := make([]Key, k)
	entries := make([]Entry, k)
	for i := range keys {
		name := fmt.Sprintf("h%d.example.nl.", i)
		keys[i] = keyA(name)
		entries[i] = Entry{Records: []dnswire.RR{rrA(name, 300, "10.0.0.1")}, Rank: RankAnswer}
	}
	for _, flush := range []struct {
		name string
		fn   func(c *Cache)
	}{
		{"Flush", (*Cache).Flush},
		{"FlushShard", func(c *Cache) { c.FlushShard(1) }},
	} {
		c := New(clock.NewVirtual(epoch), Config{Shards: 2})
		fill := func() {
			for i := range keys {
				c.Put(keys[i], entries[i], 1)
			}
		}
		fill()
		carved := len(c.arena.chunk)
		if n := testing.AllocsPerRun(20, func() { flush.fn(c); fill() }); n != 0 {
			t.Errorf("%s then refill allocates %.1f objects, want 0", flush.name, n)
		}
		if len(c.arena.chunk) != carved || c.Len() != k {
			t.Errorf("%s then refill: %d unused chunk nodes (had %d), Len %d; want every node off the free list",
				flush.name, len(c.arena.chunk), carved, c.Len())
		}
		for i := range keys {
			if v := c.Get(keys[i], 1); !v.Hit || v.Records[0].Name != keys[i].Name {
				t.Fatalf("%s then refill: %s = %+v", flush.name, keys[i].Name, v)
			}
		}
	}
}

// TestPutAtCapacityAllocatesNothing: eviction hands its node to the Put
// that caused it.
func TestPutAtCapacityAllocatesNothing(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	entries := make([]Entry, 64)
	keys := make([]Key, len(entries))
	for i := range entries {
		name := fmt.Sprintf("h%d.example.nl.", i)
		keys[i] = keyA(name)
		entries[i] = Entry{Records: []dnswire.RR{rrA(name, 300, "10.0.0.1")}, Rank: RankAnswer}
	}
	const capacity = 8
	c := New(clk, Config{Capacity: capacity})
	for i := 0; i < capacity; i++ {
		c.Put(keys[i], entries[i], 0)
	}
	i := capacity
	if n := testing.AllocsPerRun(100, func() {
		c.Put(keys[i%len(keys)], entries[i%len(keys)], 0)
		i++
	}); n != 0 {
		t.Errorf("a Put at capacity allocates %.1f objects, want 0", n)
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want %d", c.Len(), capacity)
	}
}

func TestShardsAreIndependent(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{Shards: 4})
	if c.Shards() != 4 {
		t.Fatalf("Shards = %d", c.Shards())
	}
	k := keyA("a.example.nl.")
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 1)
	if v := c.Get(k, 1); !v.Hit {
		t.Error("miss on the shard that stored")
	}
	for _, other := range []int{0, 2, 3} {
		if v := c.Get(k, other); v.Hit {
			t.Errorf("shard %d shares data with shard 1", other)
		}
	}
	// Same shard modulo count.
	if v := c.Get(k, 5); !v.Hit {
		t.Error("shard hint 5 should map to shard 1")
	}
	c.FlushShard(1)
	if v := c.Get(k, 1); v.Hit {
		t.Error("FlushShard left data")
	}
}

func TestNegativeShardHints(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{Shards: 4})
	k := keyA("a.example.nl.")
	// -hint overflows for math.MinInt; every hint must still map into range.
	for _, hint := range []int{-1, -4, -5, math.MinInt, math.MinInt + 1, math.MaxInt} {
		c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, hint)
		if v := c.Get(k, hint); !v.Hit {
			t.Errorf("hint %d: stored entry not found", hint)
		}
		c.FlushShard(hint)
		if v := c.Get(k, hint); v.Hit {
			t.Errorf("hint %d: FlushShard left data", hint)
		}
	}
	// Hints congruent mod Shards address the same backend: -1 ≡ 3 (mod 4).
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, -1)
	if v := c.Get(k, 3); !v.Hit {
		t.Error("hint -1 and 3 map to different shards")
	}
}

func TestPeek(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{Capacity: 2})
	k := keyA("a.example.nl.")
	if v := c.Peek(k, 0); v.Hit {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	clk.RunFor(100 * time.Second)
	v := c.Peek(k, 0)
	if !v.Hit || v.Rank != RankAnswer || len(v.Records) != 1 {
		t.Fatalf("view = %+v", v)
	}
	if v.Records[0].TTL != 300 {
		t.Errorf("Peek TTL = %d, want the stored 300 (no decrement)", v.Records[0].TTL)
	}
	if v.Age != 100*time.Second {
		t.Errorf("Age = %v, want 100s", v.Age)
	}
	// Get still decrements; Peek aliasing must not have corrupted storage.
	if g := c.Get(k, 0); g.Records[0].TTL != 200 {
		t.Errorf("Get after Peek TTL = %d, want 200", g.Records[0].TTL)
	}
	clk.RunFor(200 * time.Second)
	if v := c.Peek(k, 0); v.Hit {
		t.Error("Peek returned expired data")
	}

	// Peek counts as use for the LRU, exactly like Get.
	clk2 := clock.NewVirtual(epoch)
	c2 := New(clk2, Config{Capacity: 2})
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("h%d.example.nl.", i)
		c2.Put(keyA(name), Entry{Records: []dnswire.RR{rrA(name, 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	}
	c2.Peek(keyA("h0.example.nl."), 0) // touch h0: h1 becomes eviction candidate
	c2.Put(keyA("h2.example.nl."), Entry{Records: []dnswire.RR{rrA("h2.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	if v := c2.Peek(keyA("h0.example.nl."), 0); !v.Hit {
		t.Error("Peek did not refresh LRU position")
	}
	if v := c2.Peek(keyA("h1.example.nl."), 0); v.Hit {
		t.Error("h1 should have been evicted")
	}
}

func TestFlush(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{Shards: 2})
	c.Put(keyA("a."), Entry{Records: []dnswire.RR{rrA("a.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	c.Put(keyA("b."), Entry{Records: []dnswire.RR{rrA("b.", 300, "10.0.0.1")}, Rank: RankAnswer}, 1)
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len after Flush = %d", c.Len())
	}
}

func TestDump(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	c.Put(keyA("a.example.nl."), Entry{Records: []dnswire.RR{rrA("a.example.nl.", 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	clk.RunFor(5 * time.Second)
	dump := c.Dump(0)
	if len(dump) != 1 || dump[0].TTL != 295 {
		t.Fatalf("dump = %v", dump)
	}
}

func TestPutEmptyPositiveIsNoop(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	c.Put(keyA("a."), Entry{Rank: RankAnswer}, 0)
	if c.Len() != 0 {
		t.Error("empty positive entry stored")
	}
}

// TestQuickTTLNeverExceedsOriginal: property — a cached record's returned
// TTL is never larger than what was stored (after cap/floor), and never
// negative.
func TestQuickTTLNeverExceedsOriginal(t *testing.T) {
	f := func(ttl uint32, advance uint16) bool {
		ttl %= 100000
		clk := clock.NewVirtual(epoch)
		c := New(clk, Config{})
		k := keyA("q.example.nl.")
		c.Put(k, Entry{Records: []dnswire.RR{rrA("q.example.nl.", ttl, "10.0.0.1")}, Rank: RankAnswer}, 0)
		clk.RunFor(time.Duration(advance) * time.Second)
		v := c.Get(k, 0)
		if !v.Hit {
			return uint32(advance) >= ttl
		}
		return v.Records[0].TTL <= ttl && uint32(advance) < ttl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPutCopiesRecords: the cache keeps its own copy of what Put is
// handed, for a one-record set (stored inline), a longer one and a
// negative entry's SOA, so the caller may reuse its buffers at once.
func TestPutCopiesRecords(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	one := []dnswire.RR{rrA("one.example.nl.", 300, "10.0.0.1")}
	two := []dnswire.RR{rrA("two.example.nl.", 300, "10.0.0.2"), rrA("two.example.nl.", 300, "10.0.0.3")}
	soa := dnswire.RR{Name: "example.nl.", TTL: 60, Data: dnswire.SOA{MName: "ns.example.nl.", Minimum: 60}}
	neg := Entry{Negative: true, SOA: soa, Records: []dnswire.RR{rrA("neg.example.nl.", 60, "10.0.0.4")}, Rank: RankAnswer}
	c.Put(keyA("one.example.nl."), Entry{Records: one, Rank: RankAnswer}, 0)
	c.Put(keyA("two.example.nl."), Entry{Records: two, Rank: RankAnswer}, 0)
	c.Put(keyA("neg.example.nl."), neg, 0)
	for _, rrs := range [][]dnswire.RR{one, two, neg.Records} {
		for i := range rrs {
			rrs[i] = rrA("clobbered.", 1, "192.0.2.1")
		}
	}
	neg.SOA.Data = nil
	for _, tc := range []struct {
		name string
		want []string
	}{{"one.example.nl.", []string{"10.0.0.1"}}, {"two.example.nl.", []string{"10.0.0.2", "10.0.0.3"}},
		{"neg.example.nl.", []string{"10.0.0.4"}}} {
		for _, v := range []View{c.Get(keyA(tc.name), 0), c.Peek(keyA(tc.name), 0)} {
			if len(v.Records) != len(tc.want) {
				t.Fatalf("%s: %d records, want %d", tc.name, len(v.Records), len(tc.want))
			}
			for i, rr := range v.Records {
				if rr.Name != tc.name || rr.Data.(dnswire.A).Addr.String() != tc.want[i] {
					t.Errorf("%s: record %d = %v, want %s %s", tc.name, i, rr, tc.name, tc.want[i])
				}
			}
		}
	}
	if v := c.Peek(keyA("neg.example.nl."), 0); v.SOA.Data == nil {
		t.Error("the negative entry's SOA changed with the caller's Entry")
	}
}

// TestDumpMostRecentFirst: Dump walks the recency list, so its order is
// fixed by use, not by hash placement.
func TestDumpMostRecentFirst(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	c := New(clk, Config{})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("h%d.example.nl.", i)
		c.Put(keyA(name), Entry{Records: []dnswire.RR{rrA(name, 300, "10.0.0.1")}, Rank: RankAnswer}, 0)
	}
	c.Peek(keyA("h2.example.nl."), 0)
	var got []string
	for _, rr := range c.Dump(0) {
		got = append(got, rr.Name)
	}
	want := "[h2.example.nl. h5.example.nl. h4.example.nl. h3.example.nl. h1.example.nl. h0.example.nl.]"
	if fmt.Sprint(got) != want {
		t.Errorf("Dump order %v, want %s", got, want)
	}
}

// TestEntryBytes pins the memory of a cached one-record set — the common
// shape: an AAAA answer — at ≤ 160 heap bytes per entry over 65 536
// entries, counting node, hash table and arena slack (303.5 when an entry
// was a map slot, a node holding time.Time fields and an SOA, and a
// retained []RR). The node itself is at most 136 bytes.
func TestEntryBytes(t *testing.T) {
	if size := unsafe.Sizeof(cached{}); size > 136 {
		t.Errorf("a cache node is %d bytes, want ≤ 136", size)
	}
	const n = 1 << 16
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%d.cachetest.nl.", i)
	}
	var data dnswire.RData = dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}
	rr := make([]dnswire.RR, 1)
	before := liveHeap()
	c := New(clock.NewVirtual(epoch), Config{})
	for _, name := range names {
		rr[0] = dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300, Data: data}
		c.Put(Key{Name: name, Type: dnswire.TypeAAAA}, Entry{Records: rr, Rank: RankAnswer}, 0)
	}
	after := liveHeap()
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	per := float64(int64(after)-int64(before)) / n
	if per > 160 {
		t.Errorf("a one-record entry costs %.1f heap bytes, want ≤ 160", per)
	}
	t.Logf("a one-record entry costs %.1f heap bytes (node %d)", per, unsafe.Sizeof(cached{}))
	runtime.KeepAlive(c)
}

// liveHeap collects and returns the heap bytes that collection marked
// live. Unlike MemStats.HeapAlloc read after runtime.GC, it does not count
// what other goroutines allocate between the collection and the read.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
