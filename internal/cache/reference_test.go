package cache

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
)

// refCache is the reference the cache is checked against: a slice of
// entries scanned linearly, recency as a counter, every rule written out
// in the most direct form.
type refCache struct {
	cfg     Config
	clk     clock.Clock
	entries []*refEntry
	tick    int
}

type refEntry struct {
	key             Key
	shard           int
	e               Entry // Records and SOA owned by the model
	stored, expires time.Time
	used            int
}

func (m *refCache) shardOf(hint int) int {
	n := max(m.cfg.Shards, 1)
	return ((hint % n) + n) % n
}

func (m *refCache) find(k Key, hint int) (int, *refEntry) {
	k.Name = dnswire.CanonicalName(k.Name)
	for i, x := range m.entries {
		if x.key == k && x.shard == m.shardOf(hint) {
			return i, x
		}
	}
	return -1, nil
}

func (m *refCache) put(k Key, e Entry, hint int) {
	now := m.clk.Now()
	_, x := m.find(k, hint)
	if x != nil && x.e.Rank > e.Rank && x.expires.After(now) {
		return
	}
	var ttl time.Duration
	if e.Negative {
		if soa, ok := e.SOA.Data.(dnswire.SOA); ok {
			ttl = time.Duration(min(soa.Minimum, e.SOA.TTL)) * time.Second
		}
		if m.cfg.NegTTLCap > 0 {
			ttl = min(ttl, m.cfg.NegTTLCap)
		}
	} else {
		if len(e.Records) == 0 {
			return
		}
		lo := e.Records[0].TTL
		for _, rr := range e.Records {
			lo = min(lo, rr.TTL)
		}
		ttl = time.Duration(lo) * time.Second
		if m.cfg.MaxTTL > 0 {
			ttl = min(ttl, m.cfg.MaxTTL)
		}
		if m.cfg.MinTTL > 0 {
			ttl = max(ttl, m.cfg.MinTTL)
		}
	}
	e.Records = append([]dnswire.RR(nil), e.Records...)
	if !e.Negative {
		e.SOA = dnswire.RR{}
	}
	if x == nil {
		x = &refEntry{key: Key{dnswire.CanonicalName(k.Name), k.Type}, shard: m.shardOf(hint)}
		m.entries = append(m.entries, x)
	}
	m.tick++
	x.e, x.stored, x.expires, x.used = e, now, now.Add(ttl), m.tick
	for m.cfg.Capacity > 0 && len(m.inShard(x.shard)) > m.cfg.Capacity {
		lru := m.inShard(x.shard)[0]
		i, _ := m.find(lru.key, lru.shard)
		m.entries = append(m.entries[:i], m.entries[i+1:]...)
	}
}

// inShard lists a shard's entries, least recently used first.
func (m *refCache) inShard(shard int) []*refEntry {
	var out []*refEntry
	for _, x := range m.entries {
		if x.shard == shard {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].used < out[j].used })
	return out
}

// get models Get (clone true, stale as asked), Lookup (clone false) and,
// with peek, Peek.
func (m *refCache) get(k Key, hint int, stale, clone, peek bool) View {
	now := m.clk.Now()
	_, x := m.find(k, hint)
	if x == nil {
		return View{}
	}
	remaining, expired := x.expires.Sub(now), !x.expires.After(now)
	window := m.cfg.StaleWindow
	if window == 0 {
		window = time.Hour
	}
	if expired && (peek || !stale || !m.cfg.ServeStale || now.Sub(x.expires) > window) {
		return View{}
	}
	m.tick++
	x.used = m.tick
	secs := uint32(max(remaining, 0) / time.Second)
	v := View{Hit: true, Stale: expired, Rank: x.e.Rank, Negative: x.e.Negative,
		NXDomain: x.e.NXDomain, SOA: x.e.SOA, Age: now.Sub(x.stored), TTL: secs}
	if len(x.e.Records) > 0 {
		v.Records = append([]dnswire.RR(nil), x.e.Records...)
	}
	if v.Negative && !peek {
		v.SOA.TTL = secs
	}
	for i := range v.Records {
		if clone {
			v.Records[i].TTL = secs
		}
	}
	return v
}

func (m *refCache) dump(hint int) []dnswire.RR {
	var out []dnswire.RR
	xs := m.inShard(m.shardOf(hint))
	for i := len(xs) - 1; i >= 0; i-- {
		x := xs[i]
		if !x.expires.After(m.clk.Now()) || x.e.Negative {
			continue
		}
		for _, rr := range x.e.Records {
			rr.TTL = uint32(x.expires.Sub(m.clk.Now()) / time.Second)
			out = append(out, rr)
		}
	}
	return out
}

// fuzzOps reads a fuzz input one byte at a time, 0 once it runs out.
type fuzzOps []byte

func (b *fuzzOps) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzCacheMatchesReference drives the cache and refCache with the same
// operations — Put, Get, GetStale, Lookup, Peek, clock advances, Flush,
// FlushShard, Len and Dump — under a configuration drawn from the input
// (TTL cap and floor, negative cap, capacity, serve-stale window, shards),
// and requires identical answers. Keys mix case and trailing dots, and
// shard hints run negative; advances land exactly on and one nanosecond
// past TTL and stale-window edges.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 9, 0, 1, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 0, 2, 1, 2, 60, 3, 0, 121, 2, 0, 0, 8, 1, 4, 9, 9, 0, 0, 121, 5, 0})
	f.Add([]byte{2, 0, 0, 1, 3, 2, 0, 0, 1, 3, 10, 0, 1, 1, 2, 0, 3, 20, 0, 2, 2, 0, 4, 2, 0, 0, 1, 4, 3, 0, 7, 7})
	// A negative entry capped at 20 s, read exactly at and 1 ns past expiry.
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 200, 100,
		5, 0, 0, 0, 41, 1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 3, 0, 0, 0})
	// Eight keys into one shard grow its table twice; each is read back.
	fill := []byte{0, 0, 0, 0, 0, 0, 1}
	for i := byte(1); i < 8; i++ {
		fill = append(fill, 0, i, i, 0, 3, 1, 1, 60, i)
	}
	for i := byte(1); i < 8; i++ {
		fill = append(fill, 1, i, i, 0)
	}
	f.Add(fill)
	// A rank-3 set, then a rank-1 set for the same key while the first is
	// fresh, then a read: the lower rank must not replace it (RFC 2181
	// §5.4.1).
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 3, 1, 1, 60, 1,
		0, 0, 0, 0, 1, 1, 1, 60, 2,
		1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		cfg := Config{
			Capacity:    ops.next() % 4,
			MaxTTL:      time.Duration(ops.next()%3*30) * time.Second,
			MinTTL:      time.Duration(ops.next()%3*5) * time.Second,
			NegTTLCap:   time.Duration(ops.next()%3*20) * time.Second,
			ServeStale:  ops.next()%2 == 1,
			StaleWindow: time.Duration(ops.next()%3*45) * time.Second,
			Shards:      ops.next() % 4,
		}
		clk := clock.NewVirtual(epoch)
		c, m := New(clk, cfg), &refCache{cfg: cfg, clk: clk}
		names := []string{"a.example.", "A.Example", "b.example.", "c.", "d.example", "e.", "f.example.", "G.h.example."}
		types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA}
		hints := []int{0, 1, -1, 2, -7}
		for step := 0; len(ops) > 0; step++ {
			op := ops.next() % 10
			k := Key{Name: names[ops.next()%len(names)], Type: types[ops.next()%len(types)]}
			hint := hints[ops.next()%len(hints)]
			var got, want any
			switch op {
			case 0: // Put
				e := Entry{Rank: Rank(ops.next() % 4), Negative: ops.next()%4 == 0}
				e.NXDomain = e.Negative && step%2 == 0
				for i := ops.next() % 4; i > 0; i-- {
					e.Records = append(e.Records, dnswire.RR{Name: k.Name, Class: dnswire.ClassIN,
						TTL: uint32(ops.next()), Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(ops.next())})}})
				}
				if e.Negative && ops.next()%2 == 0 {
					e.SOA = dnswire.RR{Name: "example.", TTL: uint32(ops.next()),
						Data: dnswire.SOA{MName: "ns.example.", Minimum: uint32(ops.next())}}
				}
				c.Put(k, e, hint)
				m.put(k, e, hint)
				for i := range e.Records {
					e.Records[i].TTL = 7 // the cache kept its own copy
				}
			case 1:
				got, want = c.Get(k, hint), m.get(k, hint, false, true, false)
			case 2:
				got, want = c.GetStale(k, hint), m.get(k, hint, true, true, false)
			case 3:
				stale := step%2 == 0
				got, want = c.Lookup(k, hint, stale), m.get(k, hint, stale, false, false)
			case 4:
				got, want = c.Peek(k, hint), m.get(k, hint, false, false, true)
			case 5, 6: // advance: whole seconds hit every edge, 1 ns steps past it
				switch d := ops.next(); {
				case d == 0:
					clk.RunFor(time.Nanosecond)
				case d%2 == 1:
					clk.RunFor(time.Duration(d/2) * time.Second)
				default:
					clk.RunFor(time.Duration(d/2) * time.Minute)
				}
			case 7:
				c.Flush()
				m.entries = nil
			case 8:
				c.FlushShard(hint)
				for i := len(m.entries) - 1; i >= 0; i-- {
					if m.entries[i].shard == m.shardOf(hint) {
						m.entries = append(m.entries[:i], m.entries[i+1:]...)
					}
				}
			case 9:
				got, want = [2]any{c.Len(), c.Dump(hint)}, [2]any{len(m.entries), m.dump(hint)}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d op %d %v hint %d (%+v):\ncache %+v\nmodel %+v", step, op, k, hint, cfg, got, want)
			}
		}
	})
}
