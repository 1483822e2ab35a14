package experiment

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/trace"
)

// TestAdversaryShardDeterminism extends the engine's core contract to
// the adversary family: rendered tables and report JSON are
// byte-identical at every shard count.
func TestAdversaryShardDeterminism(t *testing.T) {
	scenarios := []Scenario{
		NXNSScenario(NXNSSpec{MaxFetch: 2}),
		PoisonScenario(PoisonSpec{}),
		ReflectScenario(),
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			var base []byte
			for _, shards := range []int{1, 4} {
				out, err := Run(context.Background(), sc, RunConfig{
					Probes: 40, Seed: 11, Shards: shards, ShardProbes: 12,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !out.Report.OK() {
					t.Fatalf("shards=%d: failed invariants: %v",
						shards, out.Report.FailedInvariants())
				}
				got := renderOutcome(t, out)
				if base == nil {
					base = got
					continue
				}
				if !bytes.Equal(base, got) {
					t.Fatalf("shards=%d output differs from shards=1:\n%s\n----\n%s",
						shards, base, got)
				}
			}
		})
	}
}

// TestNXNSMaxFetchCap checks the attack and its mitigation: uncapped,
// the victim-side amplification tracks the delegation width; with
// max-fetch(k) armed it is capped by k.
func TestNXNSMaxFetchCap(t *testing.T) {
	t.Parallel()
	run := func(k int) *NXNSResult {
		out, err := Run(context.Background(),
			NXNSScenario(NXNSSpec{MaxFetch: k}),
			RunConfig{Probes: 24, Seed: 5, Shards: 2, ShardProbes: 12})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Report.OK() {
			t.Fatalf("k=%d: failed invariants: %v", k, out.Report.FailedInvariants())
		}
		return out.NXNS
	}

	uncapped := run(0)
	for _, row := range uncapped.Rows {
		if amp := row.Amplification(); amp < float64(row.Width) {
			t.Errorf("width %d uncapped: amplification %.2f, want >= width", row.Width, amp)
		}
	}

	capped := run(3)
	for i, row := range capped.Rows {
		if amp := row.Amplification(); amp > 3 {
			t.Errorf("width %d with max-fetch(3): amplification %.2f, want <= 3", row.Width, amp)
		}
		if row.VictimQueries >= uncapped.Rows[i].VictimQueries {
			t.Errorf("width %d: max-fetch did not reduce victim load (%d vs %d)",
				row.Width, row.VictimQueries, uncapped.Rows[i].VictimQueries)
		}
	}
}

// TestPoisonEfficacy checks the defense matrix end to end: a
// sequential-ID resolver is reliably poisoned, full ID entropy stops
// the same spray cold, and out-of-bailiwick writes happen only with
// the bailiwick check disabled.
func TestPoisonEfficacy(t *testing.T) {
	t.Parallel()
	run := func(spec PoisonSpec) *PoisonResult {
		out, err := Run(context.Background(), PoisonScenario(spec),
			RunConfig{Probes: 24, Seed: 3, Shards: 2, ShardProbes: 12})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Report.OK() {
			t.Fatalf("%+v: failed invariants: %v", spec, out.Report.FailedInvariants())
		}
		return out.Poison
	}

	weak := run(PoisonSpec{NoBailiwick: true})
	if weak.Hijacked < weak.Attempts/2 {
		t.Errorf("sequential IDs: only %d/%d attempts hijacked, want a majority",
			weak.Hijacked, weak.Attempts)
	}
	if weak.OOBWrites == 0 {
		t.Error("bailiwick check off: no out-of-bailiwick cache writes recorded")
	}

	bwOnly := run(PoisonSpec{})
	if bwOnly.OOBWrites != 0 {
		t.Errorf("bailiwick check on: %d out-of-bailiwick writes", bwOnly.OOBWrites)
	}

	strong := run(PoisonSpec{RandomIDs: true})
	if strong.Hijacked != 0 || strong.CachePoisoned != 0 {
		t.Errorf("full entropy + bailiwick: %d hijacks, %d poisoned caches, want 0",
			strong.Hijacked, strong.CachePoisoned)
	}
}

// TestReflectAmplification checks that EDNS shapes amplify harder than
// the plain-A shape and that the victim sees exactly one response per
// reflected query.
func TestReflectAmplification(t *testing.T) {
	t.Parallel()
	out, err := Run(context.Background(), ReflectScenario(),
		RunConfig{Probes: 30, Seed: 7, Shards: 2, ShardProbes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.OK() {
		t.Fatalf("failed invariants: %v", out.Report.FailedInvariants())
	}
	r := out.Reflect
	byShape := map[string]ReflectRow{}
	for _, row := range r.Rows {
		byShape[row.Shape] = row
		if row.Packets != row.Queries {
			t.Errorf("%s: %d packets for %d queries", row.Shape, row.Packets, row.Queries)
		}
	}
	if txt, a := byShape["TXT+EDNS"], byShape["AAAA"]; txt.Amplification() <= a.Amplification() {
		t.Errorf("TXT+EDNS amp %.2f not above AAAA amp %.2f",
			txt.Amplification(), a.Amplification())
	}
	if txt := byShape["TXT+EDNS"]; txt.Amplification() < 5 {
		t.Errorf("TXT+EDNS amplification %.2f, want >= 5", txt.Amplification())
	}
	if r.VictimQPS <= 0 {
		t.Error("victim qps not computed")
	}
}

// TestPoisonTraceHijack pins the `dikes trace -fail` reconstruction of
// a poisoning race: the trace of a successful hijack yields a
// FirstHijack span whose Explain chain shows the spoof spray and the
// accepted forgery.
func TestPoisonTraceHijack(t *testing.T) {
	t.Parallel()
	out, err := Run(context.Background(), PoisonScenario(PoisonSpec{}),
		RunConfig{Probes: 8, Seed: 2, Shards: 1, ShardProbes: 8,
			Trace: &trace.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace data")
	}
	sp, ok := out.Trace.FirstHijack()
	if !ok {
		t.Fatal("sequential-ID run recorded no hijacked span")
	}
	var sends, hits int
	for _, ev := range out.Trace.Explain(sp) {
		switch ev.Type {
		case trace.EvSpoofSend:
			sends++
		case trace.EvSpoofHit:
			hits++
		}
	}
	if sends == 0 || hits != 1 {
		t.Errorf("explain chain: %d spoof_send, %d spoof_hit events (want >0, 1)", sends, hits)
	}
}

// TestAdversarySmoke is the CI adversary-smoke entry point: all three
// scenarios, small scale, sharded, invariants green.
func TestAdversarySmoke(t *testing.T) {
	t.Parallel()
	scenarios := []Scenario{
		NXNSScenario(NXNSSpec{MaxFetch: 4}),
		PoisonScenario(PoisonSpec{RandomIDs: true}),
		ReflectScenario(),
	}
	for _, sc := range scenarios {
		out, err := Run(context.Background(), sc, RunConfig{
			Probes: 16, Seed: 42, Shards: 2, ShardProbes: 8,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if !out.Report.OK() {
			t.Fatalf("%s: failed invariants: %v", sc.Name(), out.Report.FailedInvariants())
		}
	}
}
