package experiment

// Reference models of the auth-side tallies: the map-based absorbAuthSide
// and indexFetchers the dense versions replaced, kept as the oracles
// TestAuthTalliesMatchReference holds them to. They key every tally by
// the log's strings and addresses, and fold the log in any order.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/recursive"
)

// refAbsorbAuthSide is absorbAuthSide with one set or counter map per
// round, keyed by name string, source index and (name, source) pair.
func refAbsorbAuthSide(ac *ddosAccum, tb *Testbed) {
	nsHosts := make(map[string]bool)
	for i := range tb.AuthAddrs {
		nsHosts["ns"+itoa(i+1)+"."+Domain] = true
	}
	uniqueRn := make([]map[uint32]bool, ac.rounds)
	probeRn := make([]map[uint64]bool, ac.rounds) // QName<<32 | Src
	rnPerProbe := make([]map[uint32]int, ac.rounds)
	queriesPerProbe := make([]map[uint32]int, ac.rounds)
	for i := range uniqueRn {
		uniqueRn[i] = make(map[uint32]bool)
		probeRn[i] = make(map[uint64]bool)
		rnPerProbe[i] = make(map[uint32]int)
		queriesPerProbe[i] = make(map[uint32]int)
	}

	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			r := ac.authQueries.RoundOf(tb.Start.Add(ev.At))
			if r < 0 || r >= ac.rounds {
				continue
			}
			uniqueRn[r][ev.Src] = true
			qname := tb.AuthQName(ev)
			label := ""
			switch {
			case qname == Domain && ev.QType == dnswire.TypeNS:
				label = "NS"
			case nsHosts[qname] && ev.QType == dnswire.TypeA:
				label = "A-for-NS"
			case nsHosts[qname] && ev.QType == dnswire.TypeAAAA:
				label = "AAAA-for-NS"
			case ev.QType == dnswire.TypeAAAA:
				label = "AAAA-for-PID"
				if k := uint64(ev.QName)<<32 | uint64(ev.Src); !probeRn[r][k] {
					probeRn[r][k] = true
					rnPerProbe[r][ev.QName]++
				}
				queriesPerProbe[r][ev.QName]++
			default:
				label = "other"
			}
			ac.authQueries.AddRound(r, label, 1)
		}
	}

	for r := 0; r < ac.rounds; r++ {
		ac.uniqueRn[r] += len(uniqueRn[r])
		for _, n := range rnPerProbe[r] {
			ac.rnPerProbe[r].Observe(int64(n))
		}
		for _, n := range queriesPerProbe[r] {
			ac.queriesPP[r].Observe(int64(n))
		}
	}
}

// refFetcherKey identifies one probe's name in one zone round.
type refFetcherKey struct {
	qname string
	round int
}

// refIndexFetchers maps (name, rotation round) to every recursive address
// that fetched it from the authoritatives.
func refIndexFetchers(tb *Testbed) map[refFetcherKey][]netsim.Addr {
	idx := make(map[refFetcherKey][]netsim.Addr)
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType != dnswire.TypeAAAA || ev.Dropped {
				continue
			}
			k := refFetcherKey{qname: tb.AuthQName(ev), round: int(ev.At / RotationInterval)}
			idx[k] = append(idx[k], tb.AuthSrc(ev))
		}
	}
	return idx
}

// refCell is one finished cell and the binning its tallies use.
type refCell struct {
	tb       *Testbed
	interval time.Duration
	rounds   int
}

// refCells runs the H, E and I attack cells and the calm caching cell at
// the given seed, with the benchmark's full NS harvest.
func refCells(seed int64) map[string]refCell {
	base := TestbedConfig{Probes: 96, Seed: seed}
	base.Population.Harvest = recursive.HarvestFull
	cells := map[string]refCell{}
	for _, name := range []string{"H", "E", "I"} {
		spec, _ := SpecByName(name)
		cells[name] = refCell{runDDoSTestbed(spec, base, nil), spec.ProbeInterval, int(spec.TotalDur / spec.ProbeInterval)}
	}
	calm := CachingConfig{TTL: 3600, ProbeInterval: 20 * time.Minute, Rounds: 7}
	cells["calm"] = refCell{runCachingWorld(calm, base), calm.ProbeInterval, calm.Rounds}
	return cells
}

// TestAuthTalliesMatchReference holds the dense auth-side tallies to
// their map-based references, exactly, on the benchmark's H and calm
// cells and the E and I rows, at two seeds.
func TestAuthTalliesMatchReference(t *testing.T) {
	googleFetches := 0
	for _, seed := range []int64{42, 43} {
		for name, c := range refCells(seed) {
			tb := c.tb
			spec := DDoSSpec{Name: name, ProbeInterval: c.interval}
			got, want := newDDoSAccum(spec, tb.Start, c.rounds), newDDoSAccum(spec, tb.Start, c.rounds)
			got.absorbAuthSide(tb)
			refAbsorbAuthSide(want, tb)
			if !reflect.DeepEqual(got.authQueries, want.authQueries) {
				t.Errorf("%s seed %d: query mix\n got %s\nwant %s", name, seed,
					got.authQueries.Table(authLabelNames[:]), want.authQueries.Table(authLabelNames[:]))
			}
			if !reflect.DeepEqual(got.uniqueRn, want.uniqueRn) {
				t.Errorf("%s seed %d: distinct Rn %v, want %v", name, seed, got.uniqueRn, want.uniqueRn)
			}
			for r := 0; r < c.rounds; r++ {
				if !reflect.DeepEqual(got.rnPerProbe[r], want.rnPerProbe[r]) ||
					!reflect.DeepEqual(got.queriesPP[r], want.queriesPP[r]) {
					t.Errorf("%s seed %d round %d: per-probe Rn %v / queries %v, want %v / %v", name, seed, r,
						got.rnPerProbe[r].Summary(), got.queriesPP[r].Summary(),
						want.rnPerProbe[r].Summary(), want.queriesPP[r].Summary())
				}
			}

			fetched := indexFetchers(tb)
			viaGoogle := 0
			for k, rns := range refIndexFetchers(tb) {
				google := false
				for _, rn := range rns {
					google = google || tb.Pop.IsGoogleRn(rn)
				}
				qname, ok := tb.authNames.idx[k.qname]
				_, in := fetched[fetcherKey{qname: qname, round: int32(k.round)}]
				if !ok || in != google {
					t.Errorf("%s seed %d: %s round %d fetched by Google %v, set says %v", name, seed, k.qname, k.round, google, in)
				}
				if google {
					viaGoogle++
				}
			}
			if len(fetched) != viaGoogle {
				t.Errorf("%s seed %d: %d keys fetched by Google, set holds %d", name, seed, viaGoogle, len(fetched))
			}
			googleFetches += viaGoogle
		}
	}
	if googleFetches == 0 {
		t.Error("no cell had a Google fetch: the fetcher comparison checked nothing")
	}
}

// TestAuthLogArrivalOrder pins the order absorbAuthSide folds on: the
// tap logs arrivals as the virtual clock delivers them, so At never
// decreases along the log, drops and retries included.
func TestAuthLogArrivalOrder(t *testing.T) {
	spec, _ := SpecByName("E")
	tb := runDDoSTestbed(spec, TestbedConfig{Probes: 60, Seed: 7}, nil)
	var last time.Duration
	n, dropped := 0, 0
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.At < last {
				t.Fatalf("event %d at %v follows one at %v", n, ev.At, last)
			}
			last = ev.At
			n++
			if ev.Dropped {
				dropped++
			}
		}
	}
	if len(tb.AuthLog) < 2 || dropped == 0 {
		t.Fatalf("%d events in %d chunks, %d dropped: too small a log to pin the order", n, len(tb.AuthLog), dropped)
	}
}
