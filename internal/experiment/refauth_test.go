package experiment

// Reference models of the auth-side tap folds: log-scanning, map-based
// versions of ddosAccum.foldAuth, cachingAccum.foldAuth and
// nsQueries.foldAuth, kept as the oracles TestAuthFoldsMatchLog holds
// the folds to. They key every tally by the log's strings and addresses,
// and scan the whole retained log at the end of the cell.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/passive"
	"repro/internal/recursive"
)

// refAbsorbAuthSide is the Figures 10–12 fold with one set or counter map
// per round, keyed by name string, source index and (name, source) pair.
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
			r := ac.authQueries.BinOf(tb.Start.Add(ev.At))
			if r < 0 || r >= ac.rounds {
				continue
			}
			uniqueRn[r][ev.Src] = true
			qname := tb.AuthQName(ev)
			var label int
			switch {
			case qname == Domain && ev.QType == dnswire.TypeNS:
				label = labelNS
			case nsHosts[qname] && ev.QType == dnswire.TypeA:
				label = labelANS
			case nsHosts[qname] && ev.QType == dnswire.TypeAAAA:
				label = labelAAAANS
			case ev.QType == dnswire.TypeAAAA:
				label = labelPID
				if k := uint64(ev.QName)<<32 | uint64(ev.Src); !probeRn[r][k] {
					probeRn[r][k] = true
					rnPerProbe[r][ev.QName]++
				}
				queriesPerProbe[r][ev.QName]++
			default:
				label = labelOther
			}
			ac.authQueries.AddBin(r, label, 1)
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

// refNSQueries is Figure 4's filter over the log: the A queries for the
// NS host names, by string.
func refNSQueries(tb *Testbed) []passive.QueryEvent {
	nsHosts := make(map[string]bool)
	for i := range tb.AuthAddrs {
		nsHosts["ns"+itoa(i+1)+"."+Domain] = true
	}
	var out []passive.QueryEvent
	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			if ev.QType == dnswire.TypeA && nsHosts[tb.AuthQName(ev)] {
				out = append(out, passive.QueryEvent{At: tb.Start.Add(ev.At), Src: string(tb.AuthSrc(ev))})
			}
		}
	}
	return out
}

// refCell is one finished cell that kept its log, every tap fold run on
// it as the packets arrived, and the binning the Figures 10–12 fold used.
type refCell struct {
	tb       *Testbed
	ddos     *ddosAccum    // absorbed, so flushed at the horizon
	caching  *cachingAccum // fetchers as folded, not yet absorbed
	ns       nsQueries
	interval time.Duration
	rounds   int
}

// runRefCell runs one cell through run with the log kept and all three
// folds on the tap, so each fold meets drops, NS-address queries and
// Google fetches wherever the cell has them.
func runRefCell(base TestbedConfig, interval time.Duration, rounds int, run func(TestbedConfig) *Testbed) *refCell {
	c := &refCell{interval: interval, rounds: rounds, caching: &cachingAccum{}}
	c.ddos = newDDoSAccum(DDoSSpec{ProbeInterval: interval}, testbedStart, rounds)
	base.KeepAuthLog = true
	base.fold = func(tb *Testbed, ev AuthEvent) {
		c.ddos.foldAuth(tb, ev)
		c.caching.foldAuth(tb, ev)
		c.ns.foldAuth(tb, ev)
	}
	c.tb = run(base)
	c.ddos.absorb(c.tb)
	return c
}

// refCells runs the H, E and I attack cells, the calm caching cell and a
// passive cell at the given seed, with the benchmark's full NS harvest.
func refCells(seed int64) map[string]*refCell {
	base := TestbedConfig{Probes: 96, Seed: seed}
	base.Population.Harvest = recursive.HarvestFull
	cells := map[string]*refCell{}
	for _, name := range []string{"H", "E", "I"} {
		spec, _ := SpecByName(name)
		cells[name] = runRefCell(base, spec.ProbeInterval, int(spec.TotalDur/spec.ProbeInterval),
			func(b TestbedConfig) *Testbed { return runDDoSTestbed(spec, b) })
	}
	for name, cc := range map[string]CachingConfig{
		"calm":    {TTL: 3600, ProbeInterval: 20 * time.Minute, Rounds: 7},
		"passive": {TTL: passiveTTL, ProbeInterval: passiveInterval, Rounds: passiveRounds},
	} {
		cells[name] = runRefCell(base, cc.ProbeInterval, cc.Rounds,
			func(b TestbedConfig) *Testbed { return runCachingWorld(cc, b) })
	}
	return cells
}

// TestAuthFoldsMatchLog holds every streaming tap fold to its
// log-scanning reference, exactly, on the benchmark's H and calm cells,
// the E and I rows and a passive cell, at two seeds: the Figure 10 query
// mix, Figure 12's distinct Rn, Figure 11's per-probe multisets, Table 3's
// Google-fetched keys and Figure 4's query list.
func TestAuthFoldsMatchLog(t *testing.T) {
	googleFetches, nsQueries := 0, 0
	for _, seed := range []int64{42, 43} {
		for name, c := range refCells(seed) {
			tb := c.tb
			if len(tb.AuthLog) == 0 {
				t.Fatalf("%s seed %d kept no log", name, seed)
			}
			got, want := c.ddos, newDDoSAccum(DDoSSpec{ProbeInterval: c.interval}, tb.Start, c.rounds)
			refAbsorbAuthSide(want, tb)
			if !reflect.DeepEqual(got.authQueries, want.authQueries) {
				t.Errorf("%s seed %d: query mix\n got %s\nwant %s", name, seed,
					got.authQueries.RoundTable(0, 1, 2, 3, 4), want.authQueries.RoundTable(0, 1, 2, 3, 4))
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

			fetched := c.caching.fetchers
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

			if ref := refNSQueries(tb); !reflect.DeepEqual([]passive.QueryEvent(c.ns), ref) {
				t.Errorf("%s seed %d: %d NS-address queries folded, log holds %d", name, seed, len(c.ns), len(ref))
			}
			nsQueries += len(c.ns)
		}
	}
	if googleFetches == 0 || nsQueries == 0 {
		t.Errorf("%d Google fetches, %d NS-address queries: a comparison checked nothing", googleFetches, nsQueries)
	}
}

// TestCellKeepsNoAuthLog: only the drill experiment's cells keep the tap
// log (Table 7 reads it there), the kept log holds every arrival, and the
// tap counts the same arrivals either way: the drill spec is the plain
// attack spec under another name.
func TestCellKeepsNoAuthLog(t *testing.T) {
	var plain map[string]int64
	for _, sc := range []Scenario{DDoSScenario(shortSpec()), DDoSScenario(drillSpec()), CachingScenario(), PassiveScenario()} {
		cfg := RunConfig{Probes: 40, ShardProbes: 20, Seed: 11, TTL: 600, ProbeInterval: 10 * time.Minute, Rounds: 3}
		events := 0
		cfg.afterShard = func(_ int, tb *Testbed) {
			for _, chunk := range tb.AuthLog {
				events += len(chunk)
			}
		}
		tap := mustRun(t, sc, cfg).Report.Metrics.Scope("testbed").Counters
		want := int64(0)
		switch sc.Name() {
		case "ddos-" + shortSpec().Name:
			plain = tap
		case "ddos-" + drillExperiment:
			want = tap["auth_arrivals"]
			if !reflect.DeepEqual(tap, plain) {
				t.Errorf("%s: tap counters %v with the log, %v without it", sc.Name(), tap, plain)
			}
		}
		if tap["auth_arrivals"] == 0 || int64(events) != want {
			t.Errorf("%s: cells logged %d events of %d arrivals, want %d", sc.Name(), events, tap["auth_arrivals"], want)
		}
	}
}

// TestAuthLogArrivalOrder pins the order the tap folds see: the tap
// hands arrivals over as the virtual clock delivers them, so At never
// decreases along the log, drops and retries included.
func TestAuthLogArrivalOrder(t *testing.T) {
	spec, _ := SpecByName("E")
	tb := runDDoSTestbed(spec, TestbedConfig{Probes: 60, Seed: 7, KeepAuthLog: true})
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
