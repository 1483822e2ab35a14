// Package lazyrand is the repo's one seeded-stream constructor: New(seed)
// yields exactly rand.New(rand.NewSource(seed))'s stream, but builds
// math/rand's 607-word state (4.9 KB) only at draw 273. Until then the
// tap never reaches a word the feed has written, so draw k is the sum of
// initial words 333−k and 606−k, and each initial word is a function of
// seed·48271ⁿ mod (2³¹−1) and a fixed cooked table (DESIGN.md §12.1).
package lazyrand

import (
	"math/rand"
	"sync"
)

const (
	rngLen  = 607 // math/rand's state words
	rngTap  = 273 // its short lag: the draws computed from the seed
	rngFeed = rngLen - rngTap
	modulus = 1<<31 - 1 // seedrand's x ← 48271·x mod modulus
	zeroTo  = 89482311  // what math/rand seeds a zero seed with
)

// Initial state word j in draw order (see recoverTables) is the three
// seed values x·pows[j][b] mod modulus, shifted and XORed, XOR cooked[j].
var (
	tablesOnce sync.Once
	pows       [rngLen][3]uint32
	cooked     [rngLen]uint64
)

// New returns a *rand.Rand whose stream is rand.NewSource(seed)'s, as one
// 80-byte object.
func New(seed int64) *rand.Rand {
	tablesOnce.Do(recoverTables)
	g := new(struct {
		rand rand.Rand
		src  source
	})
	g.src.Seed(seed)
	g.rand = *rand.New(&g.src) // rand.New inlines; its Rand stays on the stack
	return &g.rand
}

// source is a rand.Source64. Until src is set, n counts the draws made.
type source struct {
	x0  int64 // the seed normalised the way math/rand does it
	n   int
	src rand.Source64
}

func (s *source) Seed(seed int64) {
	if seed %= modulus; seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroTo
	}
	*s = source{x0: seed}
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *source) Uint64() uint64 {
	if s.src == nil {
		if k := s.n; k < rngTap {
			s.n++
			return s.word(k) + s.word(k+rngFeed)
		}
		s.src = rand.NewSource(s.x0).(rand.Source64) // x0 normalises to itself
		for i := 0; i < rngTap; i++ {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

func (s *source) word(j int) uint64 {
	p, x := &pows[j], uint64(s.x0)
	return x*uint64(p[0])%modulus<<40 ^ x*uint64(p[1])%modulus<<20 ^ x*uint64(p[2])%modulus ^ cooked[j]
}

// recoverTables fills the tables without copying math/rand's. In draw
// order z_0..z_606 (z_j = vec[333−j] for j ≤ 333, vec[940−j] above), draw
// k is z_k + z_{k+334} and is itself z_{k+607}, so the first 607 outputs
// of a source seeded with 1 give every z_j by subtraction, top down. Word
// i takes seeding steps 21+3i..23+3i, which for seed 1 are the powers.
func recoverTables() {
	var pow [20 + 3*rngLen + 1]uint64
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * 48271 % modulus
	}
	var z [2 * rngLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for k := rngLen; k < len(z); k++ {
		z[k] = src.Uint64()
	}
	for j := rngLen - 1; j >= 0; j-- {
		z[j] = z[j+rngLen] - z[j+rngFeed]
		i := (rngLen + rngFeed - 1 - j) % rngLen // vec index of z_j
		p := pow[21+3*i : 24+3*i]
		pows[j] = [3]uint32{uint32(p[0]), uint32(p[1]), uint32(p[2])}
		cooked[j] = z[j] ^ p[0]<<40 ^ p[1]<<20 ^ p[2]
	}
}
