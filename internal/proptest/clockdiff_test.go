package proptest

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/clock/clocktest"
)

// TestWheelHeapScenarioEquivalence is the whole-stack differential check
// behind the timing-wheel migration: the same generated ecosystem —
// hierarchy, resolvers, stub clients, DDoS window — is run once on the
// timing-wheel clock and once on the pre-wheel heap reference
// (clocktest.Heap), and every externally visible outcome must match
// exactly: per-query observations, the clock's scheduled/fired/stopped
// conservation counters, and the byte-identical deterministic run
// report. internal/clock's own property test covers raw schedules; this
// one proves the equivalence survives the full engine pipeline, where a
// single reordered or re-timed callback would shift RNG draws and
// cascade into different packet fates.
func TestWheelHeapScenarioEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := Generate(seed)

		wheelWorld, err := NewWorldOnClock(sc, clock.NewVirtual(worldEpoch), nil)
		if err != nil {
			t.Fatalf("seed %d: wheel world: %v", seed, err)
		}
		heapWorld, err := NewWorldOnClock(sc, clocktest.NewHeap(worldEpoch), nil)
		if err != nil {
			t.Fatalf("seed %d: heap world: %v", seed, err)
		}

		wres := wheelWorld.Run()
		hres := heapWorld.Run()

		if len(wres.Obs) != len(hres.Obs) {
			t.Fatalf("seed %d: observation counts diverge: wheel %d heap %d",
				seed, len(wres.Obs), len(hres.Obs))
		}
		for i := range wres.Obs {
			if !reflect.DeepEqual(wres.Obs[i], hres.Obs[i]) {
				t.Errorf("seed %d: query %d diverges:\n  wheel: %+v\n  heap:  %+v",
					seed, i, *wres.Obs[i], *hres.Obs[i])
			}
		}
		if wres.Scheduled != hres.Scheduled || wres.Fired != hres.Fired ||
			wres.Stopped != hres.Stopped || wres.Pending != hres.Pending {
			t.Errorf("seed %d: clock counters diverge: wheel (%d,%d,%d,%d) heap (%d,%d,%d,%d)",
				seed, wres.Scheduled, wres.Fired, wres.Stopped, wres.Pending,
				hres.Scheduled, hres.Fired, hres.Stopped, hres.Pending)
		}
		if wres.Net != hres.Net {
			t.Errorf("seed %d: network stats diverge: wheel %+v heap %+v",
				seed, wres.Net, hres.Net)
		}
		if !bytes.Equal(wres.ReportJSON, hres.ReportJSON) {
			t.Errorf("seed %d: run reports diverge:\n  wheel: %s\n  heap:  %s",
				seed, wres.ReportJSON, hres.ReportJSON)
		}
		if t.Failed() {
			return // later seeds would only repeat the same divergence
		}
	}
}
