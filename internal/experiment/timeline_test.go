package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/ddos"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// timelineFamilies are the families with a horizon, each at a small
// population with queries reading its client query count.
var timelineFamilies = []struct {
	name    string
	sc      Scenario
	cfg     RunConfig
	queries func(*Outcome) int64
}{
	{"ddos", DDoSScenario(shortSpec()), RunConfig{Probes: 48},
		func(o *Outcome) int64 { return int64(o.DDoS.Table4.Queries) }},
	{"caching", CachingScenario(), RunConfig{Probes: 48, Rounds: 3},
		func(o *Outcome) int64 { return int64(o.Caching.Table1.Queries) }},
	{"implications", ImplicationsScenario(), RunConfig{Probes: 40},
		func(o *Outcome) int64 {
			s := o.Implications.Series
			return s.Total(implRootOK) + s.Total(implRootFail) + s.Total(implCDNOK) + s.Total(implCDNFail)
		}},
}

// TestTimelineShardInvariance extends the engine's determinism contract
// to the timeline of every family that collects one: the Shards
// concurrency knob must not change a single byte of the merged series —
// with and without tracing riding along — and the series' client
// outcomes must count every client query once.
func TestTimelineShardInvariance(t *testing.T) {
	for _, fam := range timelineFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, tr := range []*trace.Config{nil, {SampleEvery: 3}} {
				var base []byte
				for _, k := range []int{1, 2, 4, 8} {
					cfg := fam.cfg
					cfg.ShardProbes, cfg.Shards, cfg.Seed = 16, k, 42
					cfg.Trace, cfg.Timeline = tr, &timeline.Config{}
					out, err := Run(context.Background(), fam.sc, cfg)
					if err != nil {
						t.Fatalf("Shards=%d: %v", k, err)
					}
					tl := out.Timeline
					if tl == nil {
						t.Fatalf("Shards=%d: no timeline collected", k)
					}
					outcomes := tl.Total(timeline.Answered) + tl.Total(timeline.Failed) + tl.Total(timeline.ServFail)
					if want := fam.queries(out); outcomes != want || want == 0 {
						t.Errorf("Shards=%d: timeline outcomes = %d, client queries = %d", k, outcomes, want)
					}
					got, err := json.Marshal(tl)
					if err != nil {
						t.Fatal(err)
					}
					if base == nil {
						base = got
					} else if !bytes.Equal(base, got) {
						t.Fatalf("trace=%v Shards=%d timeline differs from Shards=1:\n%s\nvs\n%s",
							tr, k, got, base)
					}
				}
			}
		})
	}
}

// TestTimelineContent sanity-checks the collected series against the
// run's aggregate tallies: per-bucket outcome counts must sum to the VP
// totals, the attack marks must mirror the spec window, and the curve
// must actually dip during the 80%-loss window.
func TestTimelineContent(t *testing.T) {
	spec := shortSpec()
	cfg := RunConfig{Probes: 48, Seed: 42, Shards: 1, ShardProbes: 16,
		Timeline: &timeline.Config{}}
	out, err := Run(context.Background(), DDoSScenario(spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := out.Timeline
	if tl == nil {
		t.Fatal("no timeline")
	}
	if tl.Bucket != time.Minute {
		t.Errorf("default bucket = %v, want 1m", tl.Bucket)
	}
	wantBins := int((spec.TotalDur+10*time.Minute)/time.Minute) + 1
	if len(tl.Bins) != wantBins {
		t.Errorf("bins = %d, want %d", len(tl.Bins), wantBins)
	}

	outcomes := tl.Total(timeline.Answered) + tl.Total(timeline.Failed) + tl.Total(timeline.ServFail)
	if got := int64(out.DDoS.Table4.Queries); outcomes != got {
		t.Errorf("timeline outcomes = %d, Table4 queries = %d", outcomes, got)
	}
	if len(tl.Marks) != 2 {
		t.Fatalf("marks = %+v, want start+end", tl.Marks)
	}
	if tl.Marks[0].At != spec.DDoSStart || tl.Marks[1].At != spec.DDoSStart+spec.DDoSDur {
		t.Errorf("mark offsets = %+v", tl.Marks)
	}

	// Answer rate during the attack must be below the pre-attack rate
	// (80% loss on all authoritatives, cold-cache rounds keep failing).
	pre, ok1 := tl.AnswerRate(int(spec.DDoSStart/time.Minute) - 10)
	mid, ok2 := tl.AnswerRate(int(spec.DDoSStart/time.Minute) + 10)
	if !ok1 || !ok2 {
		t.Fatalf("expected probing rounds at both offsets (pre ok=%v mid ok=%v)", ok1, ok2)
	}
	if mid >= pre {
		t.Errorf("answer rate did not dip during attack: pre=%.2f mid=%.2f", pre, mid)
	}

	// The renderers must run on real data without panicking.
	if s := tl.Table(); s == "" {
		t.Error("empty table")
	}
	if s := tl.Sparkline(); s == "" {
		t.Error("empty sparkline")
	}
}

// TestSpecMarks checks both annotation paths: the staged phase list and
// the legacy single loss window.
func TestSpecMarks(t *testing.T) {
	staged := DDoSSpec{Phases: []ddos.Phase{
		{Start: 30 * time.Minute, Duration: 15 * time.Minute, Intensity: 0.5, Mode: ddos.ModeDrop},
		{Start: 45 * time.Minute, Duration: 15 * time.Minute, Intensity: 1.0, Mode: ddos.ModeServFail},
	}}
	marks := specMarks(staged)
	if len(marks) != 4 {
		t.Fatalf("staged marks = %+v, want 4", marks)
	}
	if marks[0].Label != "drop 50% start" || marks[0].At != 30*time.Minute {
		t.Errorf("first mark = %+v", marks[0])
	}
	if marks[3].Label != "servfail 100% end" || marks[3].At != 60*time.Minute {
		t.Errorf("last mark = %+v", marks[3])
	}
	for i := 1; i < len(marks); i++ {
		if marks[i].At < marks[i-1].At {
			t.Errorf("marks out of order: %+v", marks)
		}
	}

	openEnded := DDoSSpec{DDoSStart: 10 * time.Minute, Loss: 1.0}
	marks = specMarks(openEnded)
	if len(marks) != 1 || marks[0].Label != "attack start (100% loss)" {
		t.Errorf("open-ended marks = %+v", marks)
	}
}

// BenchmarkTimelineOverhead measures the cost of per-bucket series
// collection on the sharded engine, on one spec-H run (TTL 1800, 90%
// loss): off (the nil-check-only baseline every production run pays) and
// on at the default one-minute bucket. The acceptance bar is on-vs-off
// regression under 2%: observations are one array index plus an integer
// increment, and the per-cell bins are a few KB, so collection is
// effectively free next to the simulator.
func BenchmarkTimelineOverhead(b *testing.B) {
	spec, ok := SpecByName("H")
	if !ok {
		b.Fatal("spec H missing")
	}
	cases := []struct {
		name string
		tlc  *timeline.Config
	}{
		{"off", nil},
		{"on", &timeline.Config{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var answered int64
			for i := 0; i < b.N; i++ {
				out, err := Run(context.Background(), DDoSScenario(spec), RunConfig{
					Probes: 600, Seed: 42, Shards: 2, ShardProbes: 256, Timeline: c.tlc,
				})
				if err != nil {
					b.Fatal(err)
				}
				if out.Timeline != nil {
					answered = out.Timeline.Total(timeline.Answered)
				}
			}
			b.ReportMetric(float64(answered), "timeline_answered")
		})
	}
}
