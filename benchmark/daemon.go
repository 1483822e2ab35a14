package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dnswire"
)

const (
	benchOrigin  = "bench.nl."
	clients      = 2 // closed-loop callers, one socket each: nproc on the reference box
	replyTimeout = 2 * time.Second
	nxShare      = 0.10 // daemon_auth_udp: share of queries for names not in the zone
	missShare    = 0.20 // daemon_recursive_mix: share of never-seen names
	sliceLen     = 250 * time.Millisecond
)

// wildcardAddr answers every name under *.u.bench.nl.
var wildcardAddr = netip.MustParseAddr("2001:db8:ffff::1")

// nameAddr is the AAAA the generated zone holds for name number i, so a
// reply can be checked without keeping the zone around.
func nameAddr(i int) netip.Addr {
	a := [16]byte{0x20, 0x01, 0x0d, 0xb8}
	binary.BigEndian.PutUint32(a[12:], uint32(i))
	return netip.AddrFrom16(a)
}

func zoneName(i int) string { return "n" + strconv.Itoa(i) + "." + benchOrigin }

// writeZone generates the bench.nl zone in master format: names
// n0..n<names-1> with one AAAA each, and a wildcard under u.
func writeZone(path string, names int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "$ORIGIN %s\n$TTL 3600\n", benchOrigin)
	fmt.Fprintf(w, "@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n@ IN NS ns1\nns1 IN A 127.0.0.1\n")
	fmt.Fprintf(w, "*.u IN AAAA %s\n", wildcardAddr)
	for i := 0; i < names; i++ {
		fmt.Fprintf(w, "n%d IN AAAA %s\n", i, nameAddr(i))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repoRoot finds the module root (the directory holding go.mod) at or
// above the working directory: the command runs from the root, the
// package test from this directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// outDir is benchmark/out under the module root: built daemon binaries,
// per-run temporary directories and trace.json live there, git-ignored.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// daemonBuild caches buildDaemons' outcome: one build per process, also
// when several workloads (or parallel tests) ask.
var daemonBuild struct {
	once              sync.Once
	authd, recursived string
	err               error
}

// buildDaemons compiles the real cmd/authd and cmd/recursived into
// benchmark/out/bin. The go tool relinks only when a source changed.
func buildDaemons(ctx context.Context) (authd, recursived string, err error) {
	b := &daemonBuild
	b.once.Do(func() {
		var root, out string
		if root, b.err = repoRoot(); b.err != nil {
			return
		}
		if out, b.err = outDir(); b.err != nil {
			return
		}
		bin := filepath.Join(out, "bin")
		if b.err = os.MkdirAll(bin, 0o755); b.err != nil {
			return
		}
		cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/authd", "./cmd/recursived")
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build daemons: %w\n%s", err, msg)
			return
		}
		b.authd, b.recursived = filepath.Join(bin, "authd"), filepath.Join(bin, "recursived")
	})
	return b.authd, b.recursived, b.err
}

// daemonEnv is what a daemon workload needs before its first set-up: the
// built binaries and, at full size, the CPU split.
type daemonEnv struct {
	authd, recursived string
	cpus              *cpuSplit // nil: no pinning
	release           func()    // undoes the pinning
}

// prepareDaemons builds the daemons and then, when the sizes ask for it,
// pins this process to the load generator's CPU. Building comes first so
// the compiler still has every core.
func prepareDaemons(ctx context.Context, o options) (*daemonEnv, error) {
	env := &daemonEnv{release: func() {}}
	var err error
	if env.authd, env.recursived, err = buildDaemons(ctx); err != nil {
		return nil, err
	}
	if o.size.pin {
		if env.cpus, env.release, err = pinGenerator(); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// freeAddr returns a loopback address with a port that was free a moment
// ago on the given network ("udp" or "tcp").
func freeAddr(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer c.Close()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one spawned authd or recursived.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	addr    string // UDP service address
	metrics string // telemetry HTTP address (/metrics)
	log     bytes.Buffer
	exited  chan struct{} // closed once cmd.Wait returned waitErr
	waitErr error
}

// launch starts a daemon and waits until it answers a query for name. A
// port chosen a moment ago can be taken by the time the daemon binds it,
// so a failed start is tried again on fresh ports.
func launch(ctx context.Context, cpus *cpuSplit, name, bin, probe string, args ...string) (d *daemon, err error) {
	for attempt := 0; attempt < 3 && ctx.Err() == nil; attempt++ {
		if d, err = startDaemon(ctx, cpus, name, bin, args...); err != nil {
			continue
		}
		if err = d.ready(ctx, probe); err == nil {
			return d, nil
		}
		d.stop()
	}
	if err == nil {
		err = ctx.Err()
	}
	return nil, err
}

// startDaemon spawns bin on a free UDP port with telemetry on a free TCP
// port, on the daemons' CPU when cpus is set. ctx cancellation terminates
// it.
func startDaemon(ctx context.Context, cpus *cpuSplit, name, bin string, args ...string) (*daemon, error) {
	d := &daemon{name: name, exited: make(chan struct{})}
	var err error
	if d.addr, err = freeAddr("udp"); err != nil {
		return nil, err
	}
	if d.metrics, err = freeAddr("tcp"); err != nil {
		return nil, err
	}
	args = append([]string{"-listen", d.addr, "-tcp=false", "-pprof", d.metrics}, args...)
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(syscall.SIGTERM) }
	d.cmd.WaitDelay = 2 * time.Second
	if err := cpus.startOn(d.cmd.Start); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	return d, nil
}

// stop sends SIGTERM and waits for the process to end. It reports an
// error when the daemon had already died, or needed SIGKILL.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("%s exited early: %v\n%s", d.name, d.waitErr, d.log.String())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", d.name, err)
	}
	select {
	case <-d.exited:
		var exit *exec.ExitError
		if d.waitErr == nil {
			return nil
		}
		if errors.As(d.waitErr, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return fmt.Errorf("%s: exit after SIGTERM: %v", d.name, d.waitErr)
	case <-time.After(2 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s did not exit within 2 s of SIGTERM", d.name)
	}
}

// ready polls the daemon with a query for name until one is answered.
func (d *daemon) ready(ctx context.Context, name string) error {
	conn, err := net.Dial("udp", d.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	wire, err := dnswire.NewQuery(1, name, dnswire.TypeAAAA).Pack()
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during start-up: %v\n%s", d.name, d.waitErr, d.log.String())
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// A write to a not-yet-bound port fails with ECONNREFUSED on the
		// next call; both are "not ready".
		conn.Write(wire)
		conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil && n >= 12 && buf[2]&0x80 != 0 {
			return nil
		}
	}
	return fmt.Errorf("%s not answering on %s after 20 s\n%s", d.name, d.addr, d.log.String())
}

// scrape reads the daemon's OpenMetrics endpoint into a flat map keyed
// "<scope>_<counter>" (the dikes_ prefix and _total suffix removed).
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.metrics+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(key, "#") || strings.Contains(key, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(strings.TrimPrefix(key, "dikes_"), "_total")] = v
	}
	return out, sc.Err()
}

// daemonSet is the daemons of one workload instance plus their files.
type daemonSet struct {
	dir      string // temporary directory holding the generated zone
	zoneFile string
	authd    *daemon
	recursor *daemon // nil on daemon_auth_udp
	hot      []int   // hot-set name numbers (recursive mix)
}

// all lists the running daemons.
func (s *daemonSet) all() []*daemon {
	if s.recursor != nil {
		return []*daemon{s.authd, s.recursor}
	}
	return []*daemon{s.authd}
}

// target is the daemon the clients query.
func (s *daemonSet) target() *daemon {
	if s.recursor != nil {
		return s.recursor
	}
	return s.authd
}

// close stops the daemons and removes the temporary directory; the
// returned error says whether every daemon exited cleanly on SIGTERM.
func (s *daemonSet) close() error {
	var errs []error
	for _, d := range s.all() {
		if d != nil {
			errs = append(errs, d.stop())
		}
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// setupDaemons does the workload's whole set-up and times it: zone
// generation, daemon start, zone load (authd answers only once the zone
// is parsed) and, for the recursive mix, warming the hot set through a
// fresh recursived.
func setupDaemons(ctx context.Context, w workload, o options, env *daemonEnv) (set *daemonSet, seconds float64, err error) {
	start := time.Now()
	out, err := outDir()
	if err != nil {
		return nil, 0, err
	}
	set = &daemonSet{}
	if set.dir, err = os.MkdirTemp(out, "run-"); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			set.close()
			set = nil
		}
	}()
	set.zoneFile = filepath.Join(set.dir, "bench.nl.zone")
	if err = writeZone(set.zoneFile, o.size.zoneNames); err != nil {
		return
	}
	if set.authd, err = launch(ctx, env.cpus, "authd", env.authd, zoneName(0), "-zone", set.zoneFile); err != nil {
		return
	}
	if w.recursive {
		if set.recursor, err = launch(ctx, env.cpus, "recursived", env.recursived, zoneName(0), "-hint", set.authd.addr); err != nil {
			return
		}
		set.hot = rand.New(rand.NewSource(o.seed)).Perm(o.size.zoneNames)[:o.size.hotNames]
		if err = warmHotSet(ctx, set.recursor.addr, set.hot); err != nil {
			return
		}
	}
	return set, time.Since(start).Seconds(), nil
}

// query is one generated client query and what a correct reply holds.
type query struct {
	name string
	want netip.Addr // the AAAA expected; invalid when nxdomain
	nx   bool       // expect NXDOMAIN
	miss bool       // never-seen name: a resolver cache miss
}

// check validates a reply to q: ID, QR bit, rcode, and for a positive
// answer an AAAA for the queried name with the expected address.
func (q query) check(resp *dnswire.Message, id uint16, wire []byte) string {
	if err := dnswire.UnpackInto(resp, wire); err != nil {
		return "undecodable reply: " + err.Error()
	}
	if resp.ID != id || !resp.Response {
		return "reply ID or QR bit wrong"
	}
	if q.nx {
		if resp.RCode != dnswire.RCodeNXDomain {
			return "want NXDOMAIN, got " + resp.RCode.String()
		}
		return ""
	}
	if resp.RCode != dnswire.RCodeNoError {
		return "want NOERROR, got " + resp.RCode.String()
	}
	for _, rr := range resp.Answers {
		if a, ok := rr.Data.(dnswire.AAAA); ok && a.Addr == q.want && strings.EqualFold(rr.Name, q.name) {
			return ""
		}
	}
	return "no AAAA " + q.want.String() + " for " + q.name
}

// client is one closed-loop caller: a connected UDP socket and the
// scratch messages and buffers it reuses for every query.
type client struct {
	conn      net.Conn
	msg, resp dnswire.Message
	wbuf      []byte // the last query sent
	rbuf      []byte
	reply     []byte // the last reply received, inside rbuf
}

func dialClient(addr string) (*client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, wbuf: make([]byte, 0, 512), rbuf: make([]byte, 65535)}, nil
}

// exchange sends q and waits for its validated reply; it returns "" or
// why the query failed. Replies to earlier, timed-out queries are
// skipped by ID.
func (c *client) exchange(q query, id uint16) string {
	c.msg.ResetQuery(id, q.name, dnswire.TypeAAAA)
	var err error
	if c.wbuf, err = c.msg.AppendPack(c.wbuf[:0]); err != nil {
		return "pack: " + err.Error()
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return "send: " + err.Error()
	}
	c.conn.SetReadDeadline(time.Now().Add(replyTimeout))
	for {
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			return "no reply in 2 s"
		}
		if n >= 2 && binary.BigEndian.Uint16(c.rbuf) != id {
			continue
		}
		c.reply = c.rbuf[:n]
		return q.check(&c.resp, id, c.reply)
	}
}

// warmHotSet resolves every hot name once through the recursor, so the
// measured hot-set queries are cache reads.
func warmHotSet(ctx context.Context, addr string, hot []int) error {
	c, err := dialClient(addr)
	if err != nil {
		return err
	}
	defer c.conn.Close()
	for k, i := range hot {
		if err := ctx.Err(); err != nil {
			return err
		}
		if why := c.exchange(query{name: zoneName(i), want: nameAddr(i)}, uint16(k+1)); why != "" {
			return fmt.Errorf("warming %s: %s", zoneName(i), why)
		}
	}
	return nil
}

// generator draws one client's query stream from the seed.
type generator struct {
	rng    *rand.Rand
	set    *daemonSet
	names  int
	prefix string // of never-seen names: unique per seed and client
	n      int
}

func newGenerator(set *daemonSet, o options, client int) *generator {
	return &generator{
		rng: rand.New(rand.NewSource(o.seed*7919 + int64(client))), set: set, names: o.size.zoneNames,
		prefix: "s" + strconv.FormatInt(o.seed, 10) + "c" + strconv.Itoa(client) + "q",
	}
}

func (g *generator) next() query {
	g.n++
	if g.set.recursor != nil {
		if g.rng.Float64() < missShare {
			return query{name: g.prefix + strconv.Itoa(g.n) + ".u." + benchOrigin, want: wildcardAddr, miss: true}
		}
		i := g.set.hot[g.rng.Intn(len(g.set.hot))]
		return query{name: zoneName(i), want: nameAddr(i)}
	}
	i := g.rng.Intn(g.names)
	if g.rng.Float64() < nxShare {
		return query{name: "x" + strconv.Itoa(i) + "." + benchOrigin, nx: true}
	}
	return query{name: zoneName(i), want: nameAddr(i)}
}

// load is what one measured window of closed-loop traffic produced.
type load struct {
	window            time.Duration
	attempted, failed int
	firstFailure      string
	sliceQPS          []float64          // validated answers per second, one sample per slice
	sliceCPUUs        []float64          // daemon CPU microseconds per validated answer, per slice
	latUs             []float64          // send -> validated reply, ascending
	hitUs, missUs     []float64          // the same, split by query kind, ascending
	cpuS              map[string]float64 // per daemon: CPU seconds inside the window
	before, after     map[string]float64 // daemon counters scraped around the window
	wire              [][]byte           // first wire messages of client 0, queries and replies (traced pass)
}

// Phases of a load run, shared by the coordinator and its clients.
const (
	warming int32 = iota
	measuring
	stopping
)

// sample is one validated, measured request.
type sample struct {
	start, end time.Time
	miss       bool
}

// clientOut is what one closed-loop client measured.
type clientOut struct {
	samples           []sample
	attempted, failed int
	firstFailure      string
	wire              [][]byte // first queries and replies on the wire, when captured
	err               error
}

// runClient is one closed-loop caller: it sends the generator's next
// query only after the previous one completed, until phase says stop.
// Only requests that start and end in the measuring phase count.
func runClient(ctx context.Context, addr string, gen *generator, idBase uint16, phase *atomic.Int32, capture bool) (out clientOut) {
	c, err := dialClient(addr)
	if err != nil {
		out.err = err
		return
	}
	defer c.conn.Close()
	for id := idBase; phase.Load() != stopping && ctx.Err() == nil; {
		q := gen.next()
		id++
		measured := phase.Load() == measuring
		start := time.Now()
		why := c.exchange(q, id)
		end := time.Now()
		if !measured || phase.Load() != measuring {
			continue
		}
		out.attempted++
		if why != "" {
			out.failed++
			if out.firstFailure == "" {
				out.firstFailure = q.name + ": " + why
			}
			continue
		}
		out.samples = append(out.samples, sample{start, end, q.miss})
		if capture && len(out.wire) < 4096 {
			out.wire = append(out.wire, bytes.Clone(c.wbuf), bytes.Clone(c.reply))
		}
	}
	return
}

// runLoad drives the target with `clients` closed-loop callers: warm-up
// (discarded), then window of measurement. With rec set, every measured
// request becomes a span and client 0 captures its first wire messages.
func runLoad(ctx context.Context, set *daemonSet, o options, window time.Duration, rec *recorder, parent int) (*load, error) {
	var phase atomic.Int32
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = runClient(ctx, set.target().addr, newGenerator(set, o, c), uint16(c)<<15, &phase, rec != nil && c == 0)
		}(c)
	}

	// The window is cut into slices of about a quarter of a second; the
	// daemons' CPU time is read at every slice edge, so throughput and CPU
	// per query have one sample per slice and their fast deciles shrug
	// off the host's bursts of interference.
	ld := &load{cpuS: make(map[string]float64)}
	slices := max(1, int((window+sliceLen/2)/sliceLen))
	edges := make([]time.Time, 0, slices+1)
	cpuAt := make([]map[string]float64, 0, slices+1)
	edge := func() error {
		cpu := make(map[string]float64)
		for _, d := range set.all() {
			var err error
			if cpu[d.name], err = procCPU(d.cmd.Process.Pid); err != nil {
				return err
			}
		}
		edges, cpuAt = append(edges, time.Now()), append(cpuAt, cpu)
		return nil
	}
	err := func() error {
		defer func() { phase.Store(stopping); wg.Wait() }()
		if err := sleep(ctx, o.size.warmup); err != nil {
			return err
		}
		var err error
		for _, d := range set.all() {
			if ld.before, err = mergeScrape(ctx, d, ld.before); err != nil {
				return err
			}
		}
		phase.Store(measuring)
		if err := edge(); err != nil {
			return err
		}
		for i := 0; i < slices; i++ {
			if err := sleep(ctx, window/time.Duration(slices)); err != nil {
				return err
			}
			if err := edge(); err != nil {
				return err
			}
		}
		phase.Store(stopping)
		wg.Wait()
		for _, d := range set.all() {
			if ld.after, err = mergeScrape(ctx, d, ld.after); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	ld.window = edges[slices].Sub(edges[0])
	for _, d := range set.all() {
		ld.cpuS[d.name] = cpuAt[slices][d.name] - cpuAt[0][d.name]
	}

	answered := make([]float64, slices) // validated answers per slice, by reply time
	for c := range outs {
		out := &outs[c]
		if out.err != nil {
			return nil, out.err
		}
		ld.attempted += out.attempted
		ld.failed += out.failed
		if ld.firstFailure == "" {
			ld.firstFailure = out.firstFailure
		}
		ld.wire = append(ld.wire, out.wire...)
		for _, s := range out.samples {
			if i := sort.Search(slices, func(i int) bool { return s.end.Before(edges[i+1]) }); i < slices {
				answered[i]++
			}
			us := float64(s.end.Sub(s.start).Nanoseconds()) / 1e3
			ld.latUs = append(ld.latUs, us)
			kind := "hit"
			if s.miss {
				ld.missUs = append(ld.missUs, us)
				kind = "miss"
			} else {
				ld.hitUs = append(ld.hitUs, us)
			}
			if rec != nil {
				rec.add(parent, "request", kind, s.start, s.end)
			}
		}
	}
	for i, n := range answered {
		cpu := 0.0
		for name, at := range cpuAt[i+1] {
			cpu += at - cpuAt[i][name]
		}
		ld.sliceQPS = append(ld.sliceQPS, n/edges[i+1].Sub(edges[i]).Seconds())
		ld.sliceCPUUs = append(ld.sliceCPUUs, ratio(1e6*cpu, n))
	}
	sort.Float64s(ld.latUs)
	sort.Float64s(ld.hitUs)
	sort.Float64s(ld.missUs)
	return ld, nil
}

// mergeScrape adds d's counters to into (allocating it when nil).
func mergeScrape(ctx context.Context, d *daemon, into map[string]float64) (map[string]float64, error) {
	m, err := d.scrape(ctx)
	if err != nil {
		return into, err
	}
	if into == nil {
		into = make(map[string]float64, len(m))
	}
	for k, v := range m {
		into[k] = v
	}
	return into, nil
}

// sleep waits for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// delta is a counter's growth across the measured window.
func (l *load) delta(key string) float64 { return l.after[key] - l.before[key] }

// daemonEndToEnd measures a daemon workload with tracing off: set-up
// several times (the median is setup_s), then one measured window
// against the last instance.
func daemonEndToEnd(ctx context.Context, w workload, o options) (result, error) {
	var res result
	env, err := prepareDaemons(ctx, o)
	if err != nil {
		return res, err
	}
	defer env.release()
	var setups []float64
	var set *daemonSet
	clean := true
	for i := 0; i < o.size.daemonSetups; i++ {
		if set != nil {
			if err := set.close(); err != nil {
				fmt.Println("FAILED:", err)
				clean = false
			}
		}
		var s float64
		if set, s, err = setupDaemons(ctx, w, o, env); err != nil {
			return res, err
		}
		setups = append(setups, s)
	}
	ld, err := runLoad(ctx, set, o, o.seconds, nil, 0)
	var rssMiB float64
	for _, d := range set.all() {
		if hwm, herr := procHWM(d.cmd.Process.Pid); herr == nil {
			rssMiB += float64(hwm) / (1 << 20)
		} else if err == nil {
			err = herr
		}
	}
	if cerr := set.close(); cerr != nil {
		fmt.Println("FAILED:", cerr)
		clean = false
	}
	if err != nil {
		return res, err
	}
	fmt.Printf("workload %s seed %d: %d clients, closed loop, loopback, %.2f s window after %.1f s warm-up\n",
		w.name, o.seed, clients, ld.window.Seconds(), o.size.warmup.Seconds())
	if ld.failed > 0 {
		fmt.Printf("FAILED: %d of %d queries; first: %s\n", ld.failed, ld.attempted, ld.firstFailure)
	}
	fmt.Printf("  qps              %.6g fast decile; median %s  (validated answers per second, per %s slice)\n",
		fastDecile(ld.sliceQPS, true), summary(ld.sliceQPS), sliceLen)
	fmt.Printf("  cpu_us_per_query %.6g fast decile; median %s  (daemon processes only)\n",
		fastDecile(ld.sliceCPUUs, false), summary(ld.sliceCPUUs))
	fmt.Printf("  latency us       p50 %.1f  p99 %.1f  (n=%d; reported per layer as udprun.latency_* by the traced pass)\n",
		percentile(ld.latUs, 0.50), percentile(ld.latUs, 0.99), len(ld.latUs))
	fmt.Printf("  peak_rss_mib     %.6g\n", rssMiB)
	fmt.Printf("  setup_s          %s\n", summary(setups))
	res.Attempted, res.Failed = ld.attempted, ld.failed
	res.Correct = ld.failed == 0 && ld.attempted > 0 && clean
	res.Metrics, err = fillMetrics(endToEnd, map[string]float64{
		"qps": fastDecile(ld.sliceQPS, true), "cpu_us_per_query": fastDecile(ld.sliceCPUUs, false),
		"peak_rss_mib": rssMiB, "setup_s": median(setups),
	}, false)
	return res, err
}
