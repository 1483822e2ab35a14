package dnswire

import (
	"net/netip"
	"sync/atomic"
)

// internSlots sizes every intern table: 2^14 pointers (128 KiB) keep the
// few thousand names and addresses one simulated cell repeats mostly
// apart — at four times the slots a cell allocates 1 % less — and cap
// what huge-population input can pin at one entry per slot. UnpackBorrow
// only reads the name table, so a flood of fresh names allocates nothing
// and evicts nothing. The tables are pointerful globals, which the GC
// pacer counts as roots in every heap goal, so they are no larger than
// they earn.
const internSlots = 1 << 14

// internTable canonicalizes decoded values: a simulation decodes the same
// handful of names and addresses millions of times, and a hit hands back
// the value built for an earlier packet instead of allocating a new one.
// The table is direct-mapped and lock-free — hash, load, compare, and on a
// miss build the value and overwrite the slot — so no decoder blocks
// another and the footprint is fixed. A miss (cold slot, collision, or a
// concurrent overwrite) is harmless: the value built is equal to the one a
// hit would have returned, it is just a fresh allocation.
type internTable[K comparable, V any] struct {
	slots [internSlots]atomic.Pointer[internEntry[K, V]]
}

type internEntry[K comparable, V any] struct {
	key K
	val V
}

// intern returns the value interned for key, whose hash is h. key is only
// compared, never kept, so it may alias a buffer the caller is about to
// reuse (readName's stack buffer stays on the stack); on a miss build
// makes the entry's own key and its value.
func (t *internTable[K, V]) intern(h uint64, key K, build func() (K, V)) V {
	if v, ok := t.lookup(h, key); ok {
		return v
	}
	e := &internEntry[K, V]{}
	e.key, e.val = build()
	t.slots[h%internSlots].Store(e)
	return e.val
}

// lookup returns the value interned for key, whose hash is h, if its slot
// holds one; it never writes the table.
func (t *internTable[K, V]) lookup(h uint64, key K) (V, bool) {
	if e := t.slots[h%internSlots].Load(); e != nil && e.key == key {
		return e.val, true
	}
	var zero V
	return zero, false
}

// hashBytes is a deterministic multiply-xorshift hash over 8-byte words
// (FNV-1a's shape, eight bytes a step). Deterministic so a run's intern
// hits, and with them its allocation counts, repeat exactly.
func hashBytes[T ~string | ~[]byte](s T) uint64 {
	h := uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = mix(h ^ w)
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return mix(h ^ w)
}

func mix(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	return x ^ x>>32
}

func hashAddr(a netip.Addr) uint64 {
	b := a.As16()
	return hashBytes(b[:])
}

var (
	nameIntern  internTable[string, string]
	aIntern     internTable[A, RData]
	aaaaIntern  internTable[AAAA, RData]
	nsIntern    internTable[NS, RData]
	cnameIntern internTable[CNAME, RData]
	soaIntern   internTable[SOA, RData]
	addrIntern  internTable[netip.Addr, string]
)

// internRData interns a decoded value of a hot comparable rdata type, so
// the interface boxing is paid once per table entry instead of once per
// decoded record.
func internRData[T interface {
	comparable
	RData
}](t *internTable[T, RData], h uint64, v T) RData {
	return t.intern(h, v, func() (T, RData) { return v, v })
}

// AddrString returns a's presentation form through the intern table:
// referrals repeat the same handful of server addresses millions of times
// per run, and netip's formatter allocates on every call.
func AddrString(a netip.Addr) string {
	return addrIntern.intern(hashAddr(a), a, func() (netip.Addr, string) { return a, a.String() })
}
