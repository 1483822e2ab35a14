package dnswire_test

import (
	"testing"

	"repro/internal/dnswire"
	"repro/internal/trace"
)

func init() { dnswire.CheckProbe = checkProbe }

func checkProbe(t testing.TB, m *dnswire.Message) {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		return
	}
	if got, want := trace.ProbeFromMsg(m), trace.ProbeFromWire(wire); got != want {
		t.Errorf("ProbeFromMsg = %d, ProbeFromWire of the packed message %d; questions %v", got, want, m.Questions)
	}
}

// TestProbeFromMsgMatchesWire: the network attributes a trace record to
// a probe by reading the packet's message, not its bytes, so every
// message of the committed fuzz corpora, and queries for names with and
// without their trailing dot, and a message with no question, must read
// the probe ProbeFromWire reads off the packed message.
func TestProbeFromMsgMatchesWire(t *testing.T) {
	msgs := []*dnswire.Message{{}} // no question
	for _, name := range []string{"1414.cachetest.nl.", "1414.", "7.x.", "0.x.", "65535.x.",
		"65536.x.", "00042.x.", "ns1.x.", "1a.x.", "x1.x.", "12345678901234567890.x.", "."} {
		for _, n := range []string{name, name[:len(name)-1]} {
			msgs = append(msgs, dnswire.NewQuery(1, n, dnswire.TypeAAAA))
		}
	}
	for _, data := range dnswire.CommittedCorpora(t) {
		if m, err := dnswire.Unpack(data); err == nil {
			msgs = append(msgs, m)
		}
	}
	for _, m := range msgs {
		checkProbe(t, m)
	}
	if got := trace.ProbeFromMsg(nil); got != 0 {
		t.Errorf("ProbeFromMsg(nil) = %d, want 0", got)
	}
	if got := trace.ProbeFromMsg(dnswire.NewQuery(1, "1414", dnswire.TypeA)); got != 1414 {
		t.Errorf(`ProbeFromMsg of a query for "1414" = %d, want 1414`, got)
	}
}
