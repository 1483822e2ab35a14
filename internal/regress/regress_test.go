package regress

import (
	"strings"
	"testing"
)

const reportsJSON = `{"reports":[{"name":"ddos-H","labels":{"seed":"42"},
 "metrics":{"scopes":[
  {"name":"resolver","counters":{"cache_hits":100,"timeouts":5},
   "histograms":{"rtt_ms":{"bounds":[10,100],"counts":[1,2,0],"count":3,"sum":64.5}}},
  {"name":"clock","counters":{"events_fired":5000}}]},
 "invariants":[{"name":"answers_balance","ok":true,"detail":""}]}]}`

const timelineJSON = `{"bucket":60000000000,"metrics":["answered","failed"],
 "bins":[[10,0],[8,2],[0,0]],"marks":[{"at":60000000000,"label":"attack start"}]}`

func TestParseDetectsFormats(t *testing.T) {
	for _, tc := range []struct {
		data string
		kind Kind
		key  string
		want float64
	}{
		{reportsJSON, KindReports, "ddos-H.resolver.cache_hits", 100},
		{reportsJSON, KindReports, "ddos-H.invariant.answers_balance", 1},
		{reportsJSON, KindReports, "ddos-H.resolver.rtt_ms.count", 3},
		{reportsJSON, KindReports, "ddos-H.resolver.rtt_ms.sum", 64.5},
		{reportsJSON, KindReports, "ddos-H.resolver.rtt_ms.bin01", 2},
		{timelineJSON, KindTimeline, "bin0001.failed", 2},
		{timelineJSON, KindTimeline, "bins", 3},
	} {
		doc, err := Parse([]byte(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if doc.Kind != tc.kind {
			t.Errorf("kind = %s, want %s", doc.Kind, tc.kind)
		}
		if got := doc.Values[tc.key]; got != tc.want {
			t.Errorf("%s[%s] = %g, want %g", tc.kind, tc.key, got, tc.want)
		}
	}
}

// TestParseRejectsUnknownFormat: an object that is neither format (a
// retired bench snapshot, say) is an error, not an empty document that
// would diff as "no differences".
func TestParseRejectsUnknownFormat(t *testing.T) {
	if doc, err := Parse([]byte(`{"BenchmarkRun/off":{"ns_per_op":1000}}`)); err == nil {
		t.Errorf("unknown format parsed as %s", doc.Kind)
	}
}

func TestCompareExactAndMissing(t *testing.T) {
	a, _ := Parse([]byte(reportsJSON))
	b, _ := Parse([]byte(reportsJSON))
	if deltas := Compare(a, b, Options{}); len(deltas) != 0 {
		t.Errorf("identical docs produced deltas: %+v", deltas)
	}

	changed := strings.Replace(reportsJSON, `"cache_hits":100`, `"cache_hits":90`, 1)
	c, _ := Parse([]byte(changed))
	deltas := Compare(a, c, Options{})
	if !AnyRegressed(deltas) {
		t.Fatal("10% drop with zero tolerance not flagged")
	}
	// A decrease is still a regression for deterministic reports (any
	// direction), but inside tolerance it passes.
	if deltas := Compare(a, c, Options{Tolerance: 0.2}); AnyRegressed(deltas) {
		t.Errorf("within-tolerance change flagged: %+v", deltas)
	}

	// A histogram sum that moved is seen (it is what a reordered float
	// merge changes first).
	moved, _ := Parse([]byte(strings.Replace(reportsJSON, `"sum":64.5`, `"sum":64.25`, 1)))
	if deltas := Compare(a, moved, Options{}); len(deltas) != 1 || deltas[0].Key != "ddos-H.resolver.rtt_ms.sum" {
		t.Errorf("histogram sum change: deltas = %+v", deltas)
	}

	// A key that vanished is always a regression.
	gone := strings.Replace(reportsJSON, `"timeouts":5`, `"other":5`, 1)
	g, _ := Parse([]byte(gone))
	deltas = Compare(a, g, Options{Tolerance: 100})
	if !AnyRegressed(deltas) {
		t.Error("missing key not flagged")
	}
}

func TestPerKeyTolerance(t *testing.T) {
	a, _ := Parse([]byte(reportsJSON))
	more := strings.Replace(reportsJSON, `"cache_hits":100`, `"cache_hits":110`, 1)
	m, _ := Parse([]byte(more))
	opts := Options{Tolerance: 0.02, PerKey: map[string]float64{"cache_hits": 0.5}}
	if deltas := Compare(a, m, opts); AnyRegressed(deltas) {
		t.Errorf("per-key override not applied: %+v", deltas)
	}
}

func TestRender(t *testing.T) {
	a, _ := Parse([]byte(reportsJSON))
	changed := strings.Replace(reportsJSON, `"cache_hits":100`, `"cache_hits":90`, 1)
	c, _ := Parse([]byte(changed))
	out := Render(Compare(a, c, Options{}))
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "cache_hits") {
		t.Errorf("render:\n%s", out)
	}
	if out := Render(nil); out != "no differences\n" {
		t.Errorf("empty render = %q", out)
	}
}
