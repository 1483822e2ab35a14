package authoritative

import (
	"testing"

	"repro/internal/dnswire"
)

// TestForcedRCodeErrorDiffusion: a 50% dial must force exactly every
// second in-zone answer — deterministic error diffusion, not a coin
// flip. Reverting the accumulator (e.g. flooring the fraction) breaks
// the exact 5-of-10 pattern.
func TestForcedRCodeErrorDiffusion(t *testing.T) {
	s := testServer(t)
	s.SetForcedRCode(dnswire.RCodeServFail, 0.5)
	var forced []int
	for i := 1; i <= 10; i++ {
		resp := s.Handle(query("1414.cachetest.nl.", dnswire.TypeAAAA))
		if resp.RCode == dnswire.RCodeServFail {
			forced = append(forced, i)
		} else if resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("query %d: rcode = %v", i, resp.RCode)
		}
	}
	want := []int{2, 4, 6, 8, 10}
	if len(forced) != len(want) {
		t.Fatalf("forced answers at %v, want %v", forced, want)
	}
	for i := range want {
		if forced[i] != want[i] {
			t.Fatalf("forced answers at %v, want %v", forced, want)
		}
	}
	if got := s.Stats().Forced; got != 5 {
		t.Errorf("Stats.Forced = %d, want 5", got)
	}
}

// TestForcedRCodeFull: intensity 1 forces every answer, with the AA bit
// so caches accept the denial as authoritative.
func TestForcedRCodeFull(t *testing.T) {
	s := testServer(t)
	s.SetForcedRCode(dnswire.RCodeNXDomain, 1)
	for i := 0; i < 3; i++ {
		resp := s.Handle(query("1414.cachetest.nl.", dnswire.TypeAAAA))
		if resp.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("query %d: rcode = %v, want NXDOMAIN", i, resp.RCode)
		}
		if !resp.Authoritative {
			t.Fatal("forced NXDOMAIN lost the AA bit")
		}
		if len(resp.Answers) != 0 {
			t.Fatalf("forced answer carries records: %v", resp.Answers)
		}
	}
}

// TestForcedRCodeClear: frac <= 0 restores normal answers.
func TestForcedRCodeClear(t *testing.T) {
	s := testServer(t)
	s.SetForcedRCode(dnswire.RCodeServFail, 1)
	if resp := s.Handle(query("1414.cachetest.nl.", dnswire.TypeAAAA)); resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("dial not armed: rcode = %v", resp.RCode)
	}
	s.SetForcedRCode(dnswire.RCodeServFail, 0)
	resp := s.Handle(query("1414.cachetest.nl.", dnswire.TypeAAAA))
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Errorf("dial not cleared: %v", resp)
	}
	if got := s.Stats().Forced; got != 1 {
		t.Errorf("Stats.Forced = %d, want 1", got)
	}
}
