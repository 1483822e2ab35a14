package lazyrand

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// calls are the *rand.Rand methods non-test code calls, each reduced to a
// comparable value. Most take one draw; Intn, Int63n and Shuffle may take
// several.
var calls = []func(r *rand.Rand) uint64{
	func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
	func(r *rand.Rand) uint64 { return r.Uint64() },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
	func(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<40 + 7)) },
	func(r *rand.Rand) uint64 {
		p := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		var v uint64
		for _, x := range p {
			v = v<<3 | x
		}
		return v
	},
}

// TestConcurrentFirstUse: cells on several goroutines share only the
// recovered tables. It is the file's first test, so in a fresh test
// binary the recovery itself races (under -race) with the draws.
func TestConcurrentFirstUse(t *testing.T) {
	var wg sync.WaitGroup
	for seed := int64(0); seed < 4; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, got := rand.New(rand.NewSource(seed)), New(seed)
			for i := 0; i < 2*rngTap; i++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Errorf("draw %d: got %d, want %d", i, g, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, modulus, -modulus, 2 * modulus, 3 * modulus,
		math.MinInt64, math.MaxInt64, zeroTo}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand wants math/rand's values, in order, for 2 000
// interleaved calls per seed, and for every method called when 271–274
// draws are already made, so each one crosses the switch to the real
// source at draw 273.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		for i := 0; i < 2000; i++ {
			if w, g := calls[i%len(calls)](want), calls[i%len(calls)](got); w != g {
				t.Fatalf("seed %d: call %d got %#x, want %#x", seed, i, g, w)
			}
		}
		for m, call := range calls {
			for lead := rngTap - 2; lead <= rngTap+1; lead++ {
				want, got := rand.New(rand.NewSource(seed)), New(seed)
				for i := 0; i < lead; i++ {
					want.Int63()
					got.Int63()
				}
				for i := 0; i < 3; i++ {
					if w, g := call(want), call(got); w != g {
						t.Fatalf("seed %d: method %d after %d draws, call %d: got %#x, want %#x",
							seed, m, lead, i, g, w)
					}
				}
			}
		}
	}
}

// TestSeedResetsLaziness reseeds before and past the switch and wants the
// new seed's stream from its start.
func TestSeedResetsLaziness(t *testing.T) {
	for _, first := range []int{10, 300} {
		got := New(5)
		for i := 0; i < first; i++ {
			got.Int63()
		}
		got.Seed(77)
		want := rand.New(rand.NewSource(77))
		for i := 0; i < 600; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("after %d draws and Seed(77): draw %d got %d, want %d", first, i, g, w)
			}
		}
	}
}

// TestAllocs pins what a mostly idle resolver pays: one object holding
// the Rand and its source at construction (math/rand's pair is two),
// nothing for the draws computed from the seed.
func TestAllocs(t *testing.T) {
	New(1) // recover the tables outside the measurement
	var seed int64
	if n := testing.AllocsPerRun(100, func() { seed++; New(seed) }); n > 1 {
		t.Errorf("New allocates %.0f objects, want 1", n)
	}
	// AllocsPerRun calls f once to warm up, then once measured: one
	// fresh Rand each, one draw already made.
	rs := []*rand.Rand{New(3), New(4)}
	for _, r := range rs {
		r.Int63()
	}
	if n := testing.AllocsPerRun(1, func() {
		r := rs[0]
		rs = rs[1:]
		for i := 1; i < rngTap; i++ {
			r.Int63()
		}
	}); n != 0 {
		t.Errorf("draws 1–272 allocate %.0f objects, want 0", n)
	}
}
