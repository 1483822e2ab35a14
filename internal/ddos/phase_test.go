package ddos

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

func TestSchedulePhasesStagedDrops(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	SchedulePhases(clk, net, Plan{
		Targets: []netsim.Addr{"a", "b"},
		Phases: []Phase{
			{Start: 10 * time.Minute, Duration: 20 * time.Minute, Intensity: 0.5, Mode: ModeDrop},
			{Start: 30 * time.Minute, Duration: 20 * time.Minute, Intensity: 1, Mode: ModeDrop},
		},
	})
	check := func(at time.Duration, want float64) {
		t.Helper()
		clk.RunUntil(epoch.Add(at))
		for _, target := range []netsim.Addr{"a", "b"} {
			if got := net.InboundLoss(target); got != want {
				t.Errorf("loss(%s) at %v = %v, want %v", target, at, got, want)
			}
		}
	}
	check(5*time.Minute, 0)    // before the first phase
	check(15*time.Minute, 0.5) // partial outage
	check(35*time.Minute, 1)   // total outage
	check(55*time.Minute, 0)   // recovery
}

// rcodeRecorder records SetForcedRCode calls in order.
type rcodeRecorder struct {
	calls []rcodeCall
}

type rcodeCall struct {
	rc   dnswire.RCode
	frac float64
}

func (r *rcodeRecorder) SetForcedRCode(rc dnswire.RCode, frac float64) {
	r.calls = append(r.calls, rcodeCall{rc: rc, frac: frac})
}

func TestSchedulePhasesRCodeModes(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	srv := &rcodeRecorder{}
	SchedulePhases(clk, net, Plan{
		Targets: []netsim.Addr{"a"},
		Servers: []RCodeServer{srv},
		Phases: []Phase{
			{Start: time.Minute, Duration: time.Minute, Intensity: 0.75, Mode: ModeServFail},
			{Start: 3 * time.Minute, Duration: time.Minute, Intensity: 1, Mode: ModeNXDomain},
		},
	})
	clk.RunFor(10 * time.Minute)
	want := []rcodeCall{
		{rc: dnswire.RCodeServFail, frac: 0.75},
		{rc: dnswire.RCodeServFail, frac: 0},
		{rc: dnswire.RCodeNXDomain, frac: 1},
		{rc: dnswire.RCodeNXDomain, frac: 0},
	}
	if len(srv.calls) != len(want) {
		t.Fatalf("calls = %+v, want %+v", srv.calls, want)
	}
	for i := range want {
		if srv.calls[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, srv.calls[i], want[i])
		}
	}
	// An rcode phase must not touch the packet-loss dial.
	if got := net.InboundLoss("a"); got != 0 {
		t.Errorf("rcode phase changed inbound loss: %v", got)
	}
}

// TestFailureModeRCode pins the mode-to-rcode mapping the spec compiler
// and trace analysis rely on.
func TestFailureModeRCode(t *testing.T) {
	if ModeDrop.RCode() != dnswire.RCodeNoError ||
		ModeNXDomain.RCode() != dnswire.RCodeNXDomain ||
		ModeServFail.RCode() != dnswire.RCodeServFail {
		t.Error("FailureMode.RCode mapping changed")
	}
	if ModeDrop.String() != "drop" || ModeNXDomain.String() != "nxdomain" ||
		ModeServFail.String() != "servfail" {
		t.Error("FailureMode.String mapping changed")
	}
}
