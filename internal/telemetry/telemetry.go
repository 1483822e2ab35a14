// Package telemetry publishes live run state: a Progress tracker that
// prints throttled snapshots to a writer while a sharded run executes,
// and an optional HTTP endpoint exposing OpenMetrics gauges, the Go
// runtime's expvar variables and net/http/pprof profiles. Telemetry is
// observation-only — it reads wall time for display pacing but never
// feeds anything back into the simulation, so enabling it cannot change
// results.
package telemetry

import (
	"bufio"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Serve starts an HTTP listener at addr exposing /debug/vars (expvar),
// /debug/pprof/, and an OpenMetrics /metrics endpoint on a private mux.
// src, when non-nil, supplies the registry snapshot /metrics renders
// (live Progress gauges are appended either way). It returns the bound
// address (useful with ":0") and a shutdown func that closes the
// listener, and never blocks. CLI callers typically discard the shutdown
// func — the endpoint is a diagnostic tap that may live for the process
// lifetime — while tests use it to release the port.
func Serve(addr string, src func() metrics.Snapshot) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", Handler(src))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	shutdown := func() error {
		// Close the raw listener too: srv.Close only knows about it once
		// the Serve goroutine has registered it, and shutdown may win
		// that race.
		err := srv.Close()
		if cerr := ln.Close(); err == nil && cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
		return err
	}
	return ln.Addr().String(), shutdown, nil
}

// Snapshot is one observation of a run in flight.
type Snapshot struct {
	CellsDone  int
	CellsTotal int
	// Events is the cumulative simulator event count across finished
	// cells; EventsPerSec relates it to wall time since Start.
	Events       int64
	EventsPerSec float64
	// SimHorizon is the furthest simulated time any finished cell
	// reached, relative to the testbed start.
	SimHorizon time.Duration
	// PeakRSSMB is the process high-water-mark RSS (VmHWM), in MiB;
	// 0 where /proc is unavailable.
	PeakRSSMB int64
	Elapsed   time.Duration
	// ETA extrapolates the remaining cells from the per-cell average so
	// far; 0 until at least one cell finished.
	ETA time.Duration
}

func (s Snapshot) String() string {
	b := fmt.Sprintf("cells %d/%d", s.CellsDone, s.CellsTotal)
	if s.Events > 0 {
		b += fmt.Sprintf("  events %d (%.0f/s)", s.Events, s.EventsPerSec)
	}
	if s.SimHorizon > 0 {
		b += fmt.Sprintf("  sim %s", s.SimHorizon.Round(time.Second))
	}
	if s.PeakRSSMB > 0 {
		b += fmt.Sprintf("  rss %dMB", s.PeakRSSMB)
	}
	if s.ETA > 0 {
		b += fmt.Sprintf("  eta %s", s.ETA.Round(time.Second))
	}
	return b
}

// Progress aggregates cell completions of a sharded run and prints
// throttled snapshots. Safe for concurrent CellDone calls from the
// worker pool. The zero value is unusable; a nil *Progress is a valid
// "telemetry off" value for every method.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	every   time.Duration
	start   time.Time
	lastOut time.Time

	cellsDone  int
	cellsTotal int
	events     int64
	simHorizon time.Duration
	finished   bool
}

// NewProgress tracks a run of cellsTotal cells, printing to w (stderr
// when nil) at most once per every (default 2 s).
func NewProgress(w io.Writer, label string, cellsTotal int, every time.Duration) *Progress {
	if w == nil {
		w = os.Stderr
	}
	if every <= 0 {
		every = 2 * time.Second
	}
	p := &Progress{w: w, label: label, every: every,
		start: time.Now(), cellsTotal: cellsTotal}
	current.set(p)
	return p
}

// current points the /metrics progress gauges at the most recent
// Progress.
var current progressRef

type progressRef struct {
	mu sync.Mutex
	p  *Progress
}

func (r *progressRef) set(p *Progress) {
	r.mu.Lock()
	r.p = p
	r.mu.Unlock()
}

// clear drops the ref, but only if it still points at p — a newer run's
// Progress must not be clobbered by a stale Finish.
func (r *progressRef) clear(p *Progress) {
	r.mu.Lock()
	if r.p == p {
		r.p = nil
	}
	r.mu.Unlock()
}

// currentSnapshot returns the in-flight run's snapshot, false when no
// run is live (used by the /metrics progress gauges).
func currentSnapshot() (Snapshot, bool) {
	current.mu.Lock()
	p := current.p
	current.mu.Unlock()
	if p == nil {
		return Snapshot{}, false
	}
	return p.Snapshot(), true
}

// CellDone records one finished cell: its simulator event count and the
// simulated horizon it reached (relative to the testbed start). Prints a
// snapshot when the throttle allows.
func (p *Progress) CellDone(events int64, simHorizon time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cellsDone++
	p.events += events
	if simHorizon > p.simHorizon {
		p.simHorizon = simHorizon
	}
	now := time.Now()
	emit := now.Sub(p.lastOut) >= p.every || p.cellsDone == p.cellsTotal
	var snap Snapshot
	if emit {
		p.lastOut = now
		snap = p.snapshotLocked(now)
	}
	p.mu.Unlock()
	if emit {
		fmt.Fprintf(p.w, "%s: %s\n", p.label, snap)
	}
}

// Finish prints the final snapshot unconditionally and retires the run
// from the /metrics endpoint: a scrape between runs must report
// "no run in flight", not the previous run's last snapshot frozen in
// time.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return
	}
	p.finished = true
	snap := p.snapshotLocked(time.Now())
	p.mu.Unlock()
	current.clear(p)
	fmt.Fprintf(p.w, "%s: done: %s\n", p.label, snap)
}

// Snapshot returns the current observation.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(time.Now())
}

func (p *Progress) snapshotLocked(now time.Time) Snapshot {
	s := Snapshot{
		CellsDone: p.cellsDone, CellsTotal: p.cellsTotal,
		Events: p.events, SimHorizon: p.simHorizon,
		PeakRSSMB: PeakRSSMB(), Elapsed: now.Sub(p.start),
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.EventsPerSec = float64(s.Events) / sec
	}
	if p.cellsDone > 0 && p.cellsDone < p.cellsTotal {
		perCell := s.Elapsed / time.Duration(p.cellsDone)
		s.ETA = perCell * time.Duration(p.cellsTotal-p.cellsDone)
	}
	return s
}

// PeakRSSMB reads the process peak resident set (VmHWM) from
// /proc/self/status, in MiB; 0 when unavailable (non-Linux).
func PeakRSSMB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
