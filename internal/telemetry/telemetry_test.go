package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProgressIsSafe(t *testing.T) {
	var p *Progress
	p.CellDone(100, time.Minute) // must not panic
	p.Finish()
	if s := p.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil Snapshot = %+v, want zero", s)
	}
}

func TestProgressAggregatesAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "test", 3, time.Hour) // throttle silences mid-run lines
	p.CellDone(100, time.Minute)
	p.CellDone(250, 2*time.Minute)

	s := p.Snapshot()
	if s.CellsDone != 2 || s.CellsTotal != 3 {
		t.Errorf("cells = %d/%d, want 2/3", s.CellsDone, s.CellsTotal)
	}
	if s.Events != 350 {
		t.Errorf("events = %d, want 350", s.Events)
	}
	if s.SimHorizon != 2*time.Minute {
		t.Errorf("sim horizon = %v, want the max (2m)", s.SimHorizon)
	}

	p.CellDone(50, time.Minute) // final cell prints despite the throttle
	p.Finish()
	p.Finish() // idempotent
	out := buf.String()
	if !strings.Contains(out, "cells 3/3") {
		t.Errorf("output missing final cell line:\n%s", out)
	}
	if got := strings.Count(out, "done:"); got != 1 {
		t.Errorf("Finish printed %d times, want 1:\n%s", got, out)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{CellsDone: 2, CellsTotal: 8, Events: 1000,
		EventsPerSec: 500, SimHorizon: time.Hour, ETA: 3 * time.Second}
	line := s.String()
	for _, want := range []string{"cells 2/8", "events 1000", "sim 1h0m0s", "eta 3s"} {
		if !strings.Contains(line, want) {
			t.Errorf("String() = %q, missing %q", line, want)
		}
	}
}

func TestServeExposesVarsAndPprof(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	NewProgress(io.Discard, "serve-test", 1, time.Hour).CellDone(7, time.Second)

	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/metrics"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "memstats") {
			t.Errorf("/debug/vars missing the Go runtime vars")
		}
		if path == "/metrics" {
			if !strings.HasSuffix(string(body), "# EOF\n") {
				t.Errorf("/metrics missing # EOF terminator:\n%s", body)
			}
			if !strings.Contains(string(body), "dikes_progress_cells_done") {
				t.Errorf("/metrics missing live progress gauges:\n%s", body)
			}
			if got := resp.Header.Get("Content-Type"); got != ContentType {
				t.Errorf("/metrics Content-Type = %q", got)
			}
		}
	}
}

func TestServeShutdownReleasesListener(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The port must be rebindable immediately after shutdown.
	addr2, shutdown2, err := Serve(addr, nil)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	defer shutdown2()
	if addr2 != addr {
		t.Errorf("rebound addr = %s, want %s", addr2, addr)
	}
}

// TestFinishClearsCurrent is the regression test for stale progress
// gauges: after Finish, a /metrics scrape must see "no run in flight",
// not the finished run's snapshot.
func TestFinishClearsCurrent(t *testing.T) {
	p := NewProgress(io.Discard, "stale-test", 1, time.Hour)
	p.CellDone(7, time.Second)
	if _, ok := currentSnapshot(); !ok {
		t.Fatal("progress gauges empty while the run is live")
	}
	p.Finish()
	if _, ok := currentSnapshot(); ok {
		t.Error("progress gauges still live after Finish")
	}

	// A newer run's ref must survive an older run's late Finish.
	old := NewProgress(io.Discard, "old", 1, time.Hour)
	newer := NewProgress(io.Discard, "new", 1, time.Hour)
	old.Finish()
	if _, ok := currentSnapshot(); !ok {
		t.Error("stale Finish clobbered the live run's ref")
	}
	newer.Finish()
}

// TestProgressRace hammers CellDone/Snapshot/scrape concurrently; run
// with -race to verify the locking (satellite of the worker-pool wiring).
func TestProgressRace(t *testing.T) {
	p := NewProgress(io.Discard, "race", 64, time.Nanosecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				p.CellDone(10, time.Duration(i)*time.Second)
				_ = p.Snapshot()
				_, _ = currentSnapshot()
			}
		}()
	}
	wg.Wait()
	p.Finish()
}

func TestPeakRSSMB(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM requires /proc")
	}
	if got := PeakRSSMB(); got <= 0 {
		t.Errorf("PeakRSSMB = %d, want > 0 on Linux", got)
	}
}
