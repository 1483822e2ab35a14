package vantage

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func TestEncodeDecodeAAAA(t *testing.T) {
	addr := EncodeAAAA(1, 1414, 60)
	// The paper's example: $PREFIX:1:586::3c for serial 1, probe 1414,
	// TTL 60.
	if got := addr.String(); got != "fd0f:3897:faf7:a375:1:586:0:3c" {
		t.Errorf("encoded = %s", got)
	}
	serial, probe, ttl, ok := DecodeAAAA(addr)
	if !ok || serial != 1 || probe != 1414 || ttl != 60 {
		t.Errorf("decoded = %d %d %d %v", serial, probe, ttl, ok)
	}
	if _, _, _, ok := DecodeAAAA(dnswire.MustAddr("2001:db8::1")); ok {
		t.Error("decoded a non-experiment address")
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(serial, probe uint16, ttl uint32) bool {
		s, p, tt, ok := DecodeAAAA(EncodeAAAA(serial, probe, ttl))
		return ok && s == serial && p == probe && tt == ttl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQName(t *testing.T) {
	if got := QName(1414, "cachetest.nl."); got != "1414.cachetest.nl." {
		t.Errorf("QName = %q", got)
	}
}

// answerServer answers AAAA queries with an encoded record for the probe
// ID found as the leftmost qname label. rcode, when nonzero, makes the
// server return errors instead.
func answerServer(t *testing.T, net *netsim.Network, addr netsim.Addr, serial uint16, ttl uint32, rcode dnswire.RCode) {
	t.Helper()
	var port *netsim.Port
	port = net.Bind(addr, func(src netsim.Addr, payload []byte) {
		q, err := dnswire.Unpack(payload)
		if err != nil || q.Response {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.RCode = rcode
		if rcode == dnswire.RCodeNoError {
			label, _, _ := strings.Cut(q.Question1().Name, ".")
			if id, err := strconv.Atoi(label); err == nil {
				resp.Answers = append(resp.Answers, dnswire.RR{
					Name: q.Question1().Name, Class: dnswire.ClassIN, TTL: uint32(ttl),
					Data: dnswire.AAAA{Addr: EncodeAAAA(serial, uint16(id), ttl)},
				})
			}
		}
		wire, err := resp.Pack()
		if err != nil {
			t.Errorf("pack: %v", err)
			return
		}
		port.Send(src, wire)
	})
}

func TestProbeRoundAndFleet(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	answerServer(t, net, "10.0.0.53", 3, 60, dnswire.RCodeNoError)

	var probes []*Probe
	for i := uint16(1); i <= 3; i++ {
		p := NewProbe(clk, net, i, netsim.Addr("10.9.0."+strconv.Itoa(int(i))),
			[]netsim.Addr{"10.0.0.53"}, "cachetest.nl.")
		probes = append(probes, p)
	}
	probes[2].Dead = true

	fleet := NewFleet(clk, probes, 7)
	fleet.Schedule(epoch, 10*time.Minute, 5*time.Minute, 2)
	clk.RunFor(30 * time.Minute)

	answers := fleet.AllAnswers()
	// 2 live probes x 1 recursive x 2 rounds.
	if len(answers) != 4 {
		t.Fatalf("answers = %d, want 4", len(answers))
	}
	for _, a := range answers {
		if !a.Ok() {
			t.Errorf("answer not ok: %+v", a)
		}
		if a.Serial != 3 || a.EncTTL != 60 || a.AnswerTTL != 60 {
			t.Errorf("decoded fields wrong: %+v", a)
		}
		if a.Recursive != "10.0.0.53" || a.ProbeID == 0 || a.ProbeID > 2 {
			t.Errorf("answer from probe %d via %s", a.ProbeID, a.Recursive)
		}
		if at := a.SentAt(); at.Before(epoch) || !at.Before(epoch.Add(15*time.Minute)) {
			t.Errorf("sent at %v, outside the two rounds", at)
		}
	}
	byVP := ByVP(answers)
	if len(byVP) != 2 {
		t.Fatalf("VPs = %d, want 2", len(byVP))
	}
	for _, list := range byVP {
		if len(list) != 2 {
			t.Errorf("VP answers = %d", len(list))
		}
		if list[1].SentAt().Before(list[0].SentAt()) {
			t.Error("VP answers not time-sorted")
		}
		if list[0].Round == list[1].Round {
			t.Error("rounds not distinct")
		}
	}
}

func TestMultipleRecursivesAreSeparateVPs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	answerServer(t, net, "10.0.0.53", 1, 60, dnswire.RCodeNoError)
	answerServer(t, net, "10.0.0.54", 1, 60, dnswire.RCodeNoError)
	p := NewProbe(clk, net, 5, "10.9.0.5",
		[]netsim.Addr{"10.0.0.53", "10.0.0.54"}, "cachetest.nl.")
	p.QueryRound(0)
	clk.RunFor(time.Minute)
	if got := len(ByVP(NewFleet(clk, []*Probe{p}, 0).AllAnswers())); got != 2 {
		t.Errorf("VPs = %d, want 2", got)
	}
}

// TestNewProbeBoundsRecursives: Answer.Rec is a uint8, so a probe with
// more recursives than it can index is refused, not logged under the
// wrong one.
func TestNewProbeBoundsRecursives(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	recs := make([]netsim.Addr, MaxRecursives+1)
	for i := range recs {
		recs[i] = netsim.Addr("10.1." + strconv.Itoa(i>>8) + "." + strconv.Itoa(i&255))
	}
	NewProbe(clk, net, 1, "10.9.0.1", recs[:MaxRecursives], "cachetest.nl.")
	defer func() {
		if recover() == nil {
			t.Error("NewProbe took more than MaxRecursives recursives")
		}
	}()
	NewProbe(clk, net, 2, "10.9.0.2", recs, "cachetest.nl.")
}

func TestProbeTimeout(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	// No server bound: the query times out after 5 s.
	p := NewProbe(clk, net, 9, "10.9.0.9", []netsim.Addr{"10.0.0.53"}, "cachetest.nl.")
	p.QueryRound(0)
	clk.RunFor(10 * time.Second)
	answers := p.Answers()
	if len(answers) != 1 || answers[0].Outcome != Timeout || answers[0].Ok() {
		t.Fatalf("answers = %+v", answers)
	}
	if answers[0].RTT != 5*time.Second {
		t.Errorf("timeout RTT = %v", answers[0].RTT)
	}
}

func TestProbeDiscardsErrors(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	answerServer(t, net, "10.0.0.53", 1, 60, dnswire.RCodeServFail)
	p := NewProbe(clk, net, 9, "10.9.0.9", []netsim.Addr{"10.0.0.53"}, "cachetest.nl.")
	p.QueryRound(0)
	clk.RunFor(time.Minute)
	a := p.Answers()[0]
	if a.Outcome != Discard || a.Ok() || a.RCode != dnswire.RCodeServFail {
		t.Errorf("answer = %+v", a)
	}
}

func TestProbeDiscardsForeignAAAA(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	// Server answers with an AAAA that is not experiment-encoded.
	var port *netsim.Port
	port = net.Bind("10.0.0.53", func(src netsim.Addr, payload []byte) {
		q, _ := dnswire.Unpack(payload)
		resp := dnswire.NewResponse(q)
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: q.Question1().Name, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")},
		})
		wire, _ := resp.Pack()
		port.Send(src, wire)
	})
	p := NewProbe(clk, net, 9, "10.9.0.9", []netsim.Addr{"10.0.0.53"}, "cachetest.nl.")
	p.QueryRound(0)
	clk.RunFor(time.Minute)
	a := p.Answers()[0]
	if a.Outcome != Discard {
		t.Errorf("foreign AAAA accepted: %+v", a)
	}
}

// sortedVPKeys orders a ByVP map's keys by (probe, recursive): the order
// the accumulators walked VPs in before EachVP.
func sortedVPKeys(m map[VPKey][]Answer) []VPKey {
	keys := make([]VPKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ProbeID != keys[j].ProbeID {
			return keys[i].ProbeID < keys[j].ProbeID
		}
		return keys[i].Recursive < keys[j].Recursive
	})
	return keys
}

// TestEachVPMatchesByVP checks the visitor against the helpers it
// replaced in the accumulators, on random fleets: logs in arrival order
// with out-of-order and tied send times, silent VPs, silent probes and a
// recursive listed twice.
func TestEachVPMatchesByVP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var probes []*Probe
		for id, n := uint16(1), uint16(1+rng.Intn(12)); id <= n; id++ {
			p := &Probe{ID: id}
			for r, n := 0, 1+rng.Intn(4); r < n; r++ {
				p.Recursives = append(p.Recursives, netsim.Addr("10.0."+strconv.Itoa(rng.Intn(6))+".53"))
			}
			for i, n := 0, rng.Intn(20); i < n; i++ {
				p.answers = append(p.answers, Answer{
					Rec: uint8(rng.Intn(len(p.Recursives))), Round: uint16(i),
					Sent: epoch.Add(time.Duration(rng.Intn(8)) * time.Minute).UnixNano(), RTT: time.Duration(i),
				})
			}
			probes = append(probes, p)
		}
		fleet := NewFleet(nil, probes, 0)

		byVP := ByVP(fleet.AllAnswers())
		want := sortedVPKeys(byVP)
		var got []VPKey
		fleet.EachVP(func(p *Probe, rec netsim.Addr, list []Answer) {
			k := VPKey{p.ID, rec}
			got = append(got, k)
			if !reflect.DeepEqual(list, byVP[k]) {
				t.Fatalf("trial %d VP %v:\n got %+v\nwant %+v", trial, k, list, byVP[k])
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: visit order %v, want %v", trial, got, want)
		}
	}
}
