package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/trace"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func newNet() (*clock.Virtual, *Network) {
	clk := clock.NewVirtual(epoch)
	return clk, New(clk, 42)
}

func TestDelivery(t *testing.T) {
	clk, net := newNet()
	var got []byte
	var from Addr
	net.Bind("b", func(src Addr, payload []byte) { got, from = payload, src })
	net.Bind("a", nil)
	net.Send("a", "b", []byte("hello"))
	clk.Run()
	if string(got) != "hello" || from != "a" {
		t.Fatalf("got %q from %q", got, from)
	}
	s := net.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLatencyIsPositiveAndStablePerPair(t *testing.T) {
	clk, net := newNet()
	var times []time.Time
	net.Bind("b", func(Addr, []byte) { times = append(times, clk.Now()) })
	for i := 0; i < 10; i++ {
		net.Send("a", "b", nil)
	}
	clk.Run()
	if len(times) != 10 {
		t.Fatalf("delivered %d", len(times))
	}
	var min, max time.Duration
	for _, at := range times {
		d := at.Sub(epoch)
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// Jitter is bounded to base/6, so max/min stays within ~17%.
	if float64(max) > float64(min)*1.25 {
		t.Errorf("per-pair delay too variable: min %v max %v", min, max)
	}
}

func TestSetPairDelay(t *testing.T) {
	clk, net := newNet()
	var at time.Time
	net.Bind("b", func(Addr, []byte) { at = clk.Now() })
	net.SetPairDelay("a", "b", 7*time.Millisecond)
	net.Send("a", "b", nil)
	clk.Run()
	if got := at.Sub(epoch); got != 7*time.Millisecond {
		t.Errorf("delay = %v, want 7ms", got)
	}
	// And the reverse direction.
	var at2 time.Time
	net.Bind("a", func(Addr, []byte) { at2 = clk.Now() })
	net.Send("b", "a", nil)
	clk.Run()
	if got := at2.Sub(at); got != 7*time.Millisecond {
		t.Errorf("reverse delay = %v, want 7ms", got)
	}
}

func TestInboundLossRate(t *testing.T) {
	clk, net := newNet()
	delivered := 0
	net.Bind("b", func(Addr, []byte) { delivered++ })
	net.SetInboundLoss("b", 0.9)
	const total = 5000
	for i := 0; i < total; i++ {
		net.Send("a", "b", nil)
	}
	clk.Run()
	rate := 1 - float64(delivered)/total
	if math.Abs(rate-0.9) > 0.02 {
		t.Errorf("observed loss %.3f, want ~0.9", rate)
	}
	s := net.Stats()
	if s.Dropped+s.Delivered != total {
		t.Errorf("dropped %d + delivered %d != %d", s.Dropped, s.Delivered, total)
	}
}

func TestLossAppliedAtArrival(t *testing.T) {
	clk, net := newNet()
	delivered := 0
	net.Bind("b", func(Addr, []byte) { delivered++ })
	net.SetPairDelay("a", "b", 10*time.Millisecond)
	// Packet is in flight when loss switches to 100%.
	net.Send("a", "b", nil)
	clk.RunFor(time.Millisecond)
	net.SetInboundLoss("b", 1)
	clk.Run()
	if delivered != 0 {
		t.Error("packet in flight should have been dropped at arrival")
	}
}

func TestLossZeroAndOne(t *testing.T) {
	clk, net := newNet()
	delivered := 0
	net.Bind("b", func(Addr, []byte) { delivered++ })
	net.SetInboundLoss("b", 1)
	for i := 0; i < 100; i++ {
		net.Send("a", "b", nil)
	}
	clk.Run()
	if delivered != 0 {
		t.Errorf("100%% loss delivered %d packets", delivered)
	}
	net.SetInboundLoss("b", 0)
	if got := net.InboundLoss("b"); got != 0 {
		t.Errorf("InboundLoss = %v after reset", got)
	}
	for i := 0; i < 100; i++ {
		net.Send("a", "b", nil)
	}
	clk.Run()
	if delivered != 100 {
		t.Errorf("0%% loss delivered %d/100", delivered)
	}
}

func TestTapSeesDroppedPackets(t *testing.T) {
	clk, net := newNet()
	net.Bind("b", func(Addr, []byte) {})
	net.SetInboundLoss("b", 1)
	var events []Event
	net.AddTap(func(ev Event) { events = append(events, ev) })
	net.Send("a", "b", []byte("q"))
	clk.Run()
	if len(events) != 1 {
		t.Fatalf("tap saw %d events, want 1", len(events))
	}
	ev := events[0]
	if !ev.Dropped || ev.Src != "a" || ev.Dst != "b" || string(ev.Payload) != "q" {
		t.Errorf("event = %+v", ev)
	}
}

func TestDeadDestination(t *testing.T) {
	clk, net := newNet()
	net.Send("a", "nowhere", nil)
	clk.Run()
	if s := net.Stats(); s.Dead != 1 {
		t.Errorf("Dead = %d, want 1", s.Dead)
	}
	// Detach makes a live host dead.
	net.Bind("b", func(Addr, []byte) { t.Error("detached host received packet") })
	net.Detach("b")
	net.Send("a", "b", nil)
	clk.Run()
	if s := net.Stats(); s.Dead != 2 {
		t.Errorf("Dead = %d, want 2", s.Dead)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (delivered int) {
		clk := clock.NewVirtual(epoch)
		net := New(clk, 7)
		net.Bind("b", func(Addr, []byte) { delivered++ })
		net.SetInboundLoss("b", 0.5)
		for i := 0; i < 1000; i++ {
			net.Send("a", "b", nil)
		}
		clk.Run()
		return
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave different outcomes: %d vs %d", a, b)
	}
}

func TestPortSend(t *testing.T) {
	clk, net := newNet()
	var from Addr
	net.Bind("b", func(src Addr, _ []byte) { from = src })
	p := net.Bind("a", nil)
	if p.Addr() != "a" {
		t.Errorf("Addr = %q", p.Addr())
	}
	p.Send("b", nil)
	clk.Run()
	if from != "a" {
		t.Errorf("src = %q, want a", from)
	}
}

func TestBadLossPanics(t *testing.T) {
	_, net := newNet()
	defer func() {
		if recover() == nil {
			t.Error("SetInboundLoss(1.5) did not panic")
		}
	}()
	net.SetInboundLoss("b", 1.5)
}

// TestShared: a network hands out one value per type, the same on every
// request, and two networks (two cells) share nothing.
func TestShared(t *testing.T) {
	type scratchA struct{ n int }
	type scratchB struct{ n int }
	_, net := newNet()
	a := Shared[scratchA](net)
	a.n = 7
	if again := Shared[scratchA](net); again != a || again.n != 7 {
		t.Fatalf("second request got %p (n %d), want %p", again, again.n, a)
	}
	if b := Shared[scratchB](net); b.n != 0 {
		t.Fatalf("another type got a used value: %+v", b)
	}
	_, other := newNet()
	if Shared[scratchA](other) == a {
		t.Fatal("two networks share a value")
	}
	if n := testing.AllocsPerRun(100, func() { Shared[scratchA](net) }); n != 0 {
		t.Errorf("a repeated request allocates %.1f objects, want 0", n)
	}
}

// msgHost records a copy of the message of each delivery.
type msgHost struct{ got []*dnswire.Message }

func (h *msgHost) Deliver(_ Addr, m *dnswire.Message) { h.got = append(h.got, copyMsg(m)) }

func copyMsg(m *dnswire.Message) *dnswire.Message {
	c := *m
	c.Questions = append([]dnswire.Question(nil), m.Questions...)
	return &c
}

// TestSendMsgCarriesCopy: SendMsg and SendTCP hand the receiver and the
// taps the packet's own copy of the message, which the sender may change
// at once; bytes sent with Send reach a Host as their decode, and bytes
// that do not decode reach it not at all; a steady-state send allocates
// nothing.
func TestSendMsgCarriesCopy(t *testing.T) {
	clk, net := newNet()
	net.SetPairDelay("a", "b", time.Millisecond) // arrivals in send order
	h := &msgHost{}
	port := net.BindHost("b", h)
	var tcp []*dnswire.Message
	net.BindTCP("b", func(_ Addr, m *dnswire.Message) { tcp = append(tcp, copyMsg(m)) })
	var tapped, withMsg int
	net.AddTap(func(ev Event) {
		tapped++
		if ev.Msg != nil && ev.Msg.ID == 7 {
			withMsg++
		}
	})
	m := dnswire.NewQuery(7, "a.example.", dnswire.TypeA)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	net.SendMsg("a", "b", m)
	net.SendTCP("a", "b", m)
	m.ID, m.Questions[0].Name = 8, "b.example."
	net.Send("a", "b", wire)
	net.Send("a", "b", wire[:len(wire)-1])
	clk.Run()
	if len(h.got) != 2 {
		t.Fatalf("the host got %d deliveries, want 2 (the carried and the decoded message)", len(h.got))
	}
	for i, got := range append(h.got, tcp...) {
		if got.ID != 7 || got.Questions[0].Name != "a.example." {
			t.Errorf("delivery %d: ID %d, question %v; want the message as sent", i, got.ID, got.Questions[0])
		}
	}
	if len(tcp) != 1 {
		t.Errorf("the TCP receiver got %d messages, want 1", len(tcp))
	}
	if tapped != 3 || withMsg != 2 {
		t.Errorf("the byte tap saw %d packets, %d with the message; want 3, 2", tapped, withMsg)
	}
	net.Bind("b", func(Addr, []byte) {})
	if n := testing.AllocsPerRun(100, func() {
		port.SendMsg("b", m)
		clk.Run()
	}); n != 0 {
		t.Errorf("a steady-state SendMsg allocates %.1f objects, want 0", n)
	}
}

// TestPackOnlyForByteReaders: a message stays unpacked on its way to a
// message host and a message tap, traced or not; a raw host receives
// exactly Pack(m) as m was at send, though the sender changed m at once.
func TestPackOnlyForByteReaders(t *testing.T) {
	clk, net := newNet()
	tr := trace.NewBuffer(clk, epoch, trace.Config{})
	net.SetTrace(tr)
	m := dnswire.NewQuery(7, "1414.example.", dnswire.TypeA)
	want, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	h := &msgHost{}
	port := net.BindHost("b", h)
	var raw [][]byte
	net.Bind("c", func(_ Addr, payload []byte) { raw = append(raw, append([]byte(nil), payload...)) })
	var packed int
	net.AddMsgTap(func(ev Event) {
		if ev.Payload != nil {
			packed++
		}
	})
	net.SendMsg("a", "b", m)
	net.SendMsg("a", "c", m)
	m.ID, m.Questions[0].Name = 8, "b.example."
	clk.Run()
	if len(h.got) != 1 || h.got[0].ID != 7 {
		t.Fatalf("message host got %v, want the message with ID 7", h.got)
	}
	if len(raw) != 1 || string(raw[0]) != string(want) {
		t.Fatalf("raw host got %x, want Pack(m) at send %x", raw, want)
	}
	if packed != 1 {
		t.Errorf("the message tap saw %d packed packets, want 1 (the raw host's)", packed)
	}
	for _, ev := range tr.Events() {
		if ev.Probe != 1414 {
			t.Errorf("trace record %v: probe %d, want 1414", ev.Type, ev.Probe)
		}
	}
	if tr.Len() != 2 {
		t.Errorf("%d trace records, want 2", tr.Len())
	}

	net.SetTrace(nil)
	net.BindHost("b", nopHost{})
	if n := testing.AllocsPerRun(100, func() {
		port.SendMsg("b", m)
		clk.Run()
	}); n != 0 {
		t.Errorf("a steady-state unpacked SendMsg allocates %.1f objects, want 0", n)
	}
}

// nopHost ignores what it is delivered.
type nopHost struct{}

func (nopHost) Deliver(Addr, *dnswire.Message) {}
