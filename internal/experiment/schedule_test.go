package experiment

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lazyrand"
	"repro/internal/recursive"
)

// scheduleSmear is the smear every family schedules its probes with.
const scheduleSmear = 5 * time.Minute

// eagerSchedule is Fleet.Schedule as it armed rounds before it armed
// them one at a time: every (probe, round) timer at once, at the instant
// drawn from the fleet's seed, probe-major.
func eagerSchedule(tb *Testbed, interval time.Duration, rounds int) {
	rng := lazyrand.New(tb.Cfg.Seed + 2)
	now := tb.Clk.Now()
	for _, p := range tb.Fleet.Probes {
		if p.Dead {
			continue
		}
		for r := 0; r < rounds; r++ {
			at := tb.Start.Add(time.Duration(r)*interval + time.Duration(rng.Int63n(int64(scheduleSmear))))
			clock.AfterFunc(tb.Clk, at.Sub(now), func() { p.QueryRound(r) })
		}
	}
}

// TestScheduleMatchesEagerArming: arming one round per probe fires every
// (probe, round) at the instant eager arming drew for it, and the cell
// records the same answers and counters; Schedule itself leaves at most
// one pending timer per live probe.
func TestScheduleMatchesEagerArming(t *testing.T) {
	h, _ := SpecByName("H")
	for _, c := range []struct {
		name     string
		ttl      uint32
		attack   bool
		interval time.Duration
		rounds   int
	}{
		{"H", h.TTL, true, h.ProbeInterval, int(h.TotalDur / h.ProbeInterval)},
		{"calm", 3600, false, 20 * time.Minute, 7},
	} {
		total := time.Duration(c.rounds) * c.interval
		run := func(schedule func(tb *Testbed)) *Testbed {
			cfg := TestbedConfig{Probes: 64, Seed: 42, TTL: c.ttl}
			cfg.Population.Harvest = recursive.HarvestFull
			tb := NewTestbed(cfg)
			if c.attack {
				scheduleAttack(tb, h, tb.AuthAddrs)
			}
			tb.ScheduleRotations(total + RotationInterval)
			schedule(tb)
			tb.Clk.RunUntil(tb.Start.Add(total + 10*time.Minute))
			return tb
		}
		live := 0
		lazy := run(func(tb *Testbed) {
			s0, f0, x0 := tb.Clk.Counters()
			tb.Fleet.Schedule(tb.Start, c.interval, scheduleSmear, c.rounds)
			s1, f1, x1 := tb.Clk.Counters()
			for _, p := range tb.Fleet.Probes {
				if !p.Dead {
					live++
				}
			}
			if added := (s1 - f1 - x1) - (s0 - f0 - x0); added > int64(live) {
				t.Errorf("%s: Schedule left %d timers pending for %d live probes", c.name, added, live)
			}
		})
		eager := run(func(tb *Testbed) { eagerSchedule(tb, c.interval, c.rounds) })

		// The instants eager arming drew, by probe and round.
		rng := lazyrand.New(lazy.Cfg.Seed + 2)
		fired := 0
		for i, p := range lazy.Fleet.Probes {
			if p.Dead {
				continue
			}
			want := make([]int64, c.rounds)
			for r := range want {
				want[r] = lazy.Start.Add(time.Duration(r)*c.interval + time.Duration(rng.Int63n(int64(scheduleSmear)))).UnixNano()
			}
			if q := eager.Fleet.Probes[i]; q.ID != p.ID {
				t.Fatalf("%s: probe %d at index %d is probe %d under eager arming", c.name, p.ID, i, q.ID)
			}
			seen := make([]bool, c.rounds)
			got, ref := p.Answers(), eager.Fleet.Probes[i].Answers()
			if len(got) != len(ref) {
				t.Fatalf("%s probe %d: %d answers, eager arming %d", c.name, p.ID, len(got), len(ref))
			}
			for j, a := range got {
				if a.Sent != want[a.Round] {
					t.Errorf("%s probe %d round %d fired at %d, eager arming at %d", c.name, p.ID, a.Round, a.Sent, want[a.Round])
				}
				seen[a.Round] = true
				if b := ref[j]; a != b {
					t.Errorf("%s probe %d answer %d: %+v, eager arming %+v", c.name, p.ID, j, a, ref[j])
				}
			}
			for r, ok := range seen {
				if !ok && len(p.Recursives) > 0 {
					t.Errorf("%s probe %d: round %d never fired", c.name, p.ID, r)
				}
			}
			fired++
		}
		if fired == 0 || live != fired {
			t.Fatalf("%s: %d live probes, %d checked", c.name, live, fired)
		}
		if got, want := lazy.CollectMetrics().Snapshot(), eager.CollectMetrics().Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cell counters differ from eager arming's", c.name)
		}
	}
}
