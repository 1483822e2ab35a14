package recursive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// TestBackoffDoublesPerRound pins every profile's upstream schedule
// against dead servers, in iterative mode (two root hints) and forwarding
// mode (three forwarders): the instant of each try, the try count and the
// RD bit. The per-upstream timeout doubles once per retry *round* (each
// exhaustion of the candidate list), not per attempt, up to maxTimeout, as
// Config.InitialTimeout documents; a forwarder's first round waits twice
// InitialTimeout. Zero network delay makes the send instants a pure
// function of that schedule, so this table is each profile's n(τ): the
// tries sent by τ after the client's query.
func TestBackoffDoublesPerRound(t *testing.T) {
	ms := func(offsets ...int) []time.Duration {
		d := make([]time.Duration, len(offsets))
		for i, o := range offsets {
			d[i] = time.Duration(o) * time.Millisecond
		}
		return d
	}
	// Iterative, 750 ms rounds of two: 0 and 0.75 s, then 1.5 s apart,
	// then 3 s (the cap). Forwarding, 1.5 s rounds of three, then 3 s.
	iter7 := ms(0, 750, 1500, 3000, 4500, 7500, 10500)
	fwd7 := ms(0, 1500, 3000, 4500, 7500, 10500, 13500)
	want := map[string]struct{ iter, fwd []time.Duration }{
		"default":             {iter7, fwd7},
		"bind":                {iter7, fwd7},
		"unbound":             {iter7, fwd7},
		"farm-balancer":       {iter7[:4], fwd7[:4]},
		"multitier-forwarder": {iter7[:6], fwd7[:6]},
	}
	for _, name := range ProfileNames() {
		for _, forwarding := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/forwarding=%v", name, forwarding), func(t *testing.T) {
				w, ok := want[name]
				if !ok {
					t.Fatalf("profile %q has no schedule row", name)
				}
				cfg, _ := Profile(name)
				// The 8 s client deadline would cut the ladder short;
				// raise it so every try MaxAttempts allows plays out.
				cfg.ClientTimeout = time.Minute
				wantAt, dead := w.iter, []netsim.Addr{"203.0.113.1", "203.0.113.2"}
				if forwarding {
					wantAt, dead = w.fwd, append(dead, "203.0.113.3")
					cfg.Forwarders = dead
				} else {
					for _, a := range dead {
						cfg.RootHints = append(cfg.RootHints, ServerHint{Name: "dead.example.", Addr: a})
					}
				}
				clk := clock.NewVirtual(epoch)
				net := netsim.New(clk, 1)
				for _, a := range dead {
					net.SetPairDelay(resAddr, a, 0)
				}
				var sends []time.Duration
				net.AddMsgTap(func(ev netsim.Event) {
					if ev.Src != resAddr {
						return
					}
					sends = append(sends, ev.Time.Sub(epoch))
					if ev.Msg.RecursionDesired != forwarding {
						t.Errorf("try %d: RD = %v, want %v", len(sends), ev.Msg.RecursionDesired, forwarding)
					}
				})
				r := New(clk, &cfg, 1)
				r.Attach(net, resAddr)

				var got *Result
				r.Resolve("www.example.com.", dnswire.TypeA, 0, func(res Result) { got = &res })
				clk.RunFor(time.Minute)

				if got == nil || got.RCode != dnswire.RCodeServFail {
					t.Fatalf("result = %+v, want SERVFAIL", got)
				}
				if len(sends) != len(wantAt) || len(sends) != cfg.MaxAttempts {
					t.Fatalf("tries at %v, want %d (MaxAttempts %d)", sends, len(wantAt), cfg.MaxAttempts)
				}
				for i, at := range wantAt {
					if sends[i] != at {
						t.Errorf("try %d sent at %v, want %v (all: %v)", i+1, sends[i], at, sends)
					}
				}
				if st := r.Stats(); st.Timeouts != int64(len(wantAt)) {
					t.Errorf("timeouts = %d, want %d", st.Timeouts, len(wantAt))
				}
			})
		}
	}
}
