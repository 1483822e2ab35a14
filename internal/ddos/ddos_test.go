package ddos

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func TestScheduleAppliesAndLifts(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	Schedule(clk, net, Attack{
		Targets:  []netsim.Addr{"a", "b"},
		Loss:     0.9,
		Start:    10 * time.Minute,
		Duration: 60 * time.Minute,
	})
	if got := net.InboundLoss("a"); got != 0 {
		t.Errorf("loss before start = %v", got)
	}
	clk.RunFor(11 * time.Minute)
	if got := net.InboundLoss("a"); got != 0.9 {
		t.Errorf("loss during attack = %v", got)
	}
	if got := net.InboundLoss("b"); got != 0.9 {
		t.Errorf("loss on second target = %v", got)
	}
	clk.RunFor(60 * time.Minute)
	if got := net.InboundLoss("a"); got != 0 {
		t.Errorf("loss after end = %v", got)
	}
}

func TestScheduleWithoutEnd(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	Schedule(clk, net, Attack{Targets: []netsim.Addr{"a"}, Loss: 1, Start: time.Minute})
	clk.RunFor(24 * time.Hour)
	if got := net.InboundLoss("a"); got != 1 {
		t.Errorf("unbounded attack lifted: loss = %v", got)
	}
}

func TestFloodLossRate(t *testing.T) {
	cases := []struct {
		attack, capacity float64
		wantLo, wantHi   float64
	}{
		{0, 1000, 0, 0},           // no attack: no loss
		{500, 1000, 0, 0},         // under capacity: no loss
		{1000, 1000, 0, 0},        // attack exactly fills capacity: still no loss
		{10000, 1000, 0.89, 0.91}, // 10x capacity: ~90% loss (§6.1)
		{100000, 1000, 0.98, 1.0}, // 100x: ~99%
		{1000, 0, 1, 1},           // no capacity at all
	}
	for _, c := range cases {
		f := Flood{AttackQPS: c.attack, CapacityQPS: c.capacity}
		got := f.LossRate()
		if got < c.wantLo || got > c.wantHi {
			t.Errorf("LossRate(%v qps vs %v cap) = %.3f, want [%.2f, %.2f]",
				c.attack, c.capacity, got, c.wantLo, c.wantHi)
		}
	}
}
