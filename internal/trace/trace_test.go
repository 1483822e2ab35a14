package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tick is a manually-advanced Clock for buffer tests.
type tick struct{ now time.Time }

func (c *tick) Now() time.Time { return c.now }

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

func newTestBuffer(cfg Config) (*Buffer, *tick) {
	clk := &tick{now: epoch}
	return NewBuffer(clk, epoch, cfg), clk
}

func TestBufferStampsSimulatedTime(t *testing.T) {
	b, clk := newTestBuffer(Config{})
	clk.now = epoch.Add(42 * time.Second)
	b.Emit(Event{Type: EvCacheHit, Probe: 1})
	clk.now = epoch.Add(2 * time.Minute)
	b.Force(Event{Type: EvServFail, Probe: 2})
	b.EmitAt(Event{At: 7 * time.Second, Type: EvClassify, Probe: 3})

	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].At != 42*time.Second {
		t.Errorf("Emit stamped %v, want 42s", evs[0].At)
	}
	if evs[1].At != 2*time.Minute {
		t.Errorf("Force stamped %v, want 2m", evs[1].At)
	}
	if evs[2].At != 7*time.Second {
		t.Errorf("EmitAt overwrote the preset timestamp: %v", evs[2].At)
	}
}

func TestBufferRingWraparound(t *testing.T) {
	b, clk := newTestBuffer(Config{Capacity: 8})
	for i := 0; i < 12; i++ {
		clk.now = epoch.Add(time.Duration(i) * time.Second)
		b.Emit(Event{Type: EvNetDeliver, Probe: 1, A: uint32(i)})
	}
	if b.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (ring capacity)", b.Len())
	}
	if b.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", b.Dropped())
	}
	evs := b.Events()
	for i, ev := range evs {
		if want := uint32(i + 4); ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest-first after overwrite)", i, ev.A, want)
		}
	}
}

func TestBufferGrowsWithoutDropping(t *testing.T) {
	// Initial allocation is small; the ring must grow to capacity before
	// overwriting anything.
	b, _ := newTestBuffer(Config{Capacity: 1024})
	for i := 0; i < 1000; i++ {
		b.Emit(Event{Type: EvNetDeliver, Probe: 1, A: uint32(i)})
	}
	if b.Len() != 1000 || b.Dropped() != 0 {
		t.Fatalf("Len = %d Dropped = %d, want 1000 and 0", b.Len(), b.Dropped())
	}
}

func TestSampling(t *testing.T) {
	b, _ := newTestBuffer(Config{SampleEvery: 3})
	// Probes 1, 4, 7, ... are sampled; probe 0 (infrastructure) is not.
	cases := map[uint16]bool{0: false, 1: true, 2: false, 3: false, 4: true, 7: true}
	for probe, want := range cases {
		if got := b.Sampled(probe); got != want {
			t.Errorf("Sampled(%d) = %v, want %v", probe, got, want)
		}
	}

	b.Emit(Event{Type: EvCacheHit, Probe: 2})   // unsampled: dropped
	b.EmitAt(Event{Type: EvClassify, Probe: 2}) // unsampled: dropped
	b.Emit(Event{Type: EvCacheHit, Probe: 4})   // sampled
	b.Force(Event{Type: EvServFail, Probe: 2})  // forced through
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (sampled emit + forced terminal)", b.Len())
	}

	full, _ := newTestBuffer(Config{})
	if !full.Sampled(0) {
		t.Error("full tracing must record probe-0 infrastructure events")
	}
}

func TestProbeFromName(t *testing.T) {
	cases := map[string]uint16{
		"1414.cachetest.nl.": 1414,
		"5.leaf.test.":       5,
		"0.leaf.test.":       0, // probe 0 is the non-probe value anyway
		"ns1.leaf.test.":     0,
		"deep1.n2.leaf.":     0, // first label must be all digits
		"70000.leaf.test.":   0, // out of uint16 range
		"123":                0, // no label separator
		"":                   0,
	}
	for name, want := range cases {
		if got := ProbeFromName(name); got != want {
			t.Errorf("ProbeFromName(%q) = %d, want %d", name, got, want)
		}
	}
}

// wireQuery builds a minimal DNS wire message whose first question name
// starts with the given label.
func wireQuery(label string) []byte {
	msg := make([]byte, 12)
	msg[5] = 1 // QDCOUNT = 1
	msg = append(msg, byte(len(label)))
	msg = append(msg, label...)
	msg = append(msg, 0, 0, 28, 0, 1) // root, TYPE AAAA, CLASS IN
	return msg
}

func TestProbeFromWire(t *testing.T) {
	if got := ProbeFromWire(wireQuery("1414")); got != 1414 {
		t.Errorf("digit label: got %d, want 1414", got)
	}
	if got := ProbeFromWire(wireQuery("ns1")); got != 0 {
		t.Errorf("non-digit label: got %d, want 0", got)
	}
	if got := ProbeFromWire(wireQuery("70000")); got != 0 {
		t.Errorf("overflow label: got %d, want 0", got)
	}
	noQuestion := wireQuery("7")
	noQuestion[5] = 0
	if got := ProbeFromWire(noQuestion); got != 0 {
		t.Errorf("QDCOUNT 0: got %d, want 0", got)
	}
	if got := ProbeFromWire([]byte{1, 2, 3}); got != 0 {
		t.Errorf("short payload: got %d, want 0", got)
	}
}

// sampleData builds a two-cell trace exercising every serialized field.
func sampleData() *Data {
	return &Data{
		SampleEvery: 5,
		Cells: []CellTrace{
			{Cell: 0, Dropped: 3, Events: []Event{
				{At: time.Second, Type: EvStubIssue, Probe: 1, A: 28, B: 9, Name: "1.x."},
				{At: 2 * time.Second, Type: EvNetDrop, Probe: 1, Src: "10.0.0.1", Dst: "192.0.9.11"},
				{At: 3 * time.Second, Type: EvStubAnswer, Probe: 1, A: 0, B: 9, Name: "1.x."},
			}},
			{Cell: 1, Events: []Event{
				{At: 0, Type: EvAttackStart, A: 900000, Dst: "192.0.9.11"},
			}},
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	want := sampleData()
	var buf bytes.Buffer
	if err := want.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}

	// The writer's output must itself be deterministic.
	var buf2 bytes.Buffer
	if err := want.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSONL is not byte-deterministic")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"empty":       "",
		"bad header":  "not json\n",
		"bad version": `{"v":9,"sample":0,"cells":0}` + "\n",
		"truncated":   `{"v":1,"sample":0,"cells":1}` + "\n",
		"unknown event": `{"v":1,"sample":0,"cells":1}` + "\n" +
			`{"cell":0,"events":1,"dropped":0}` + "\n" +
			`{"at":0,"ev":"warp-drive"}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadJSONL accepted malformed input", name)
		}
	}
}

func TestChromeExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleData().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// 2 process_name metadata + 1 span + 2 instants (net_drop, attack_start).
	if n != 5 {
		t.Errorf("ValidateChrome counted %d events, want 5", n)
	}
	if _, err := ValidateChrome(strings.NewReader(`{"traceEvents":[{"ph":"i"}]}`)); err == nil {
		t.Error("ValidateChrome accepted an event with no name/pid/tid")
	}
}

func TestSpansAndValidate(t *testing.T) {
	d := sampleData()
	spans := d.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Complete || sp.Outcome != "ok" || sp.Start != time.Second || sp.End != 3*time.Second {
		t.Fatalf("span = %+v", sp)
	}
	if problems := d.Validate(); len(problems) != 0 {
		t.Fatalf("Validate: %v", problems)
	}

	// An unclosed span is a problem — but only in cells that dropped
	// nothing; cell 0 above has Dropped > 0 and is exempt.
	d.Cells[1].Events = append(d.Cells[1].Events,
		Event{At: time.Second, Type: EvStubIssue, Probe: 1, B: 77})
	problems := d.Validate()
	if len(problems) != 1 || !strings.Contains(problems[0], "never closed") {
		t.Fatalf("Validate = %v, want one never-closed problem", problems)
	}
}

func TestMatchSpansForcedCloseForUnsampledProbe(t *testing.T) {
	// With sampling on, a forced terminal event for an unsampled probe has
	// no matching open; it must become a zero-length failed span, not a
	// structural problem.
	c := CellTrace{Events: []Event{
		{At: 9 * time.Second, Type: EvStubTimeout, Probe: 2, A: 3, B: 5, Name: "2.x."},
	}}
	spans, problems := matchSpans(c, 3)
	if len(problems) != 0 {
		t.Fatalf("problems: %v", problems)
	}
	if len(spans) != 1 || !spans[0].Failed() || spans[0].Outcome != "timeout" {
		t.Fatalf("spans = %+v", spans)
	}

	// The same close for a sampled probe IS a problem.
	c.Events[0].Probe = 1
	_, problems = matchSpans(c, 3)
	if len(problems) != 1 || !strings.Contains(problems[0], "without open") {
		t.Fatalf("problems = %v, want one close-without-open", problems)
	}
}

func TestMatchSpansProbeZeroAndStubTruncate(t *testing.T) {
	// Two stubs ask for the same unlabelled name with the same query ID
	// (the transport family's shared TXT record): probe 0, matched
	// first-in-first-out. One gets TC=1 with no fallback — the stub-side
	// truncate (Name and Src, no Dst) ends its span — while a resolver's
	// and a server's truncate records in between are not span edges.
	c := CellTrace{Events: []Event{
		{At: 1 * time.Second, Type: EvStubIssue, B: 1, Name: "fat.txt.x.", Dst: "r1"},
		{At: 2 * time.Second, Type: EvStubIssue, B: 1, Name: "fat.txt.x.", Dst: "r2"},
		{At: 3 * time.Second, Type: EvTruncate, A: 1800, B: 512},
		{At: 3 * time.Second, Type: EvTruncate, Name: "fat.txt.x.", Src: "r1", Dst: "a1"},
		{At: 4 * time.Second, Type: EvTruncate, B: 1, Name: "fat.txt.x.", Src: "r1"},
		{At: 5 * time.Second, Type: EvStubAnswer, B: 1, Name: "fat.txt.x.", Src: "r2"},
	}}
	spans, problems := matchSpans(c, 1)
	if len(problems) != 0 {
		t.Fatalf("problems: %v", problems)
	}
	if len(spans) != 2 || spans[0].Outcome != "truncated" || !spans[0].Failed() ||
		spans[0].End != 4*time.Second || spans[1].Outcome != "ok" || spans[1].End != 5*time.Second {
		t.Fatalf("spans = %+v", spans)
	}

	// A labelled probe reusing an open ID is still a structural problem.
	for i := range c.Events {
		c.Events[i].Probe = 7
	}
	if _, problems = matchSpans(c, 1); len(problems) != 1 || !strings.Contains(problems[0], "reopened") {
		t.Fatalf("problems = %v, want one reopened", problems)
	}
}

func TestFirstFailureAndExplain(t *testing.T) {
	d := &Data{Cells: []CellTrace{{Cell: 0, Events: []Event{
		{At: 0, Type: EvAttackStart, A: 1e6, Dst: "192.0.9.11"},
		{At: time.Second, Type: EvStubIssue, Probe: 3, A: 28, B: 1, Name: "3.x."},
		{At: 2 * time.Second, Type: EvNetDrop, Probe: 3, Src: "10.0.0.1", Dst: "192.0.9.11"},
		{At: 4 * time.Second, Type: EvStubTimeout, Probe: 3, A: 2, B: 1, Name: "3.x."},
		{At: 5 * time.Second, Type: EvStubIssue, Probe: 4, A: 28, B: 1, Name: "4.x."},
		{At: 6 * time.Second, Type: EvStubAnswer, Probe: 4, A: 0, B: 1, Name: "4.x."},
	}}}}
	sp, ok := d.FirstFailure()
	if !ok || sp.Probe != 3 || sp.Outcome != "timeout" {
		t.Fatalf("FirstFailure = %+v ok=%v", sp, ok)
	}
	chain := d.Explain(sp)
	// Attack context + the probe's issue, drop, and timeout.
	if len(chain) != 4 {
		t.Fatalf("Explain returned %d events, want 4: %+v", len(chain), chain)
	}
	if chain[0].Type != EvAttackStart {
		t.Errorf("chain starts with %s, want attack_start context", chain[0].Type)
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for ty := EvStubIssue; ty <= EvClassify; ty++ {
		name := ty.String()
		if name == "unknown" || name == "none" {
			t.Fatalf("type %d has no name", ty)
		}
		if got := ParseType(name); got != ty {
			t.Errorf("ParseType(%q) = %d, want %d", name, got, ty)
		}
	}
	if got := ParseType("warp-drive"); got != EvNone {
		t.Errorf("ParseType(unknown) = %d, want EvNone", got)
	}
}

func TestFormatEventRendersArgs(t *testing.T) {
	line := FormatEvent(Event{At: time.Second, Type: EvStubIssue, Probe: 7, A: 28, B: 3, Name: "7.x."})
	for _, want := range []string{"stub_issue", "probe=7", "qtype=28", "id=3", "name=7.x."} {
		if !strings.Contains(line, want) {
			t.Errorf("FormatEvent = %q, missing %q", line, want)
		}
	}
	if line := FormatEvent(Event{Type: EvAttackStart, A: 900000, Dst: "x"}); !strings.Contains(line, "loss=0.90") {
		t.Errorf("attack_start line = %q, missing loss", line)
	}
}
