package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/udprun"
	"repro/internal/zone"
)

// TestTCPBridgeDeadline serves TCP through the bridge with an engine that
// never calls back: the client gets SERVFAIL once the wait expires and
// the connection's goroutine is free for the next query, instead of
// parking forever.
func TestTCPBridgeDeadline(t *testing.T) {
	loop := udprun.NewLoop()
	defer loop.Close()
	silent := func(*dnswire.Message, func(*dnswire.Message)) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go udprun.ServeTCP(ln, tcpBridge(loop, silent, 50*time.Millisecond))

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for id := uint16(7); id < 9; id++ { // the second proves the goroutine came back
		wire, err := dnswire.NewQuery(id, "host.cachetest.nl.", dnswire.TypeAAAA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := udprun.WriteTCPMessage(conn, wire); err != nil {
			t.Fatal(err)
		}
		out, err := udprun.ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("query %d: no answer after the bridge deadline: %v", id, err)
		}
		m, err := dnswire.Unpack(out)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != id || !m.Response || m.RCode != dnswire.RCodeServFail || len(m.Questions) != 1 {
			t.Errorf("query %d answered %v, want its SERVFAIL", id, m)
		}
	}
}

// TestTCPBridgeAnswers: a callback made inside the posted call, as a
// cache hit makes it, is what the client receives; a response message is
// dropped without waiting.
func TestTCPBridgeAnswers(t *testing.T) {
	loop := udprun.NewLoop()
	defer loop.Close()
	echo := func(q *dnswire.Message, cb func(*dnswire.Message)) { cb(dnswire.NewResponse(q)) }
	bridge := tcpBridge(loop, echo, time.Minute)
	q := dnswire.NewQuery(3, "host.cachetest.nl.", dnswire.TypeAAAA)
	wire, _ := q.Pack()
	m, err := dnswire.Unpack(bridge(wire))
	if err != nil || m.ID != 3 || !m.Response || m.RCode != dnswire.RCodeNoError {
		t.Errorf("bridge answered %v, %v", m, err)
	}
	q.Response = true
	wire, _ = q.Pack()
	if out := bridge(wire); out != nil {
		t.Errorf("a response message was answered with %d octets", len(out))
	}
}

// TestDaemonMain is the daemon itself when the test binary is re-executed
// with recursived's arguments after "--"; in a plain test run it skips.
func TestDaemonMain(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs only as the daemon of TestStopsOnSIGTERM")
	}
	os.Args = append([]string{"recursived"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("recursived", flag.ExitOnError)
	main()
}

// TestStopsOnSIGTERM runs recursived as a child process in front of an
// in-process authoritative, waits for an answer, sends SIGTERM and
// expects a clean exit (status 0) within 2 s, its stats line logged last.
func TestStopsOnSIGTERM(t *testing.T) {
	z, err := zone.ParseString("$ORIGIN cachetest.nl.\n$TTL 3600\n@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n"+
		"@ IN NS ns1\nns1 IN A 127.0.0.1\nhost IN AAAA 2001:db8::7\n", "")
	if err != nil {
		t.Fatal(err)
	}
	authLoop := udprun.NewLoop()
	defer authLoop.Close()
	auth, err := udprun.Listen("127.0.0.1:0", authLoop)
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()
	srv := authoritative.New(z)
	go auth.Serve(func(src netsim.Addr, payload []byte) {
		if out := srv.HandleWire(payload); out != nil {
			auth.Send(src, out)
		}
	})

	addr := freeUDPAddr(t)
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonMain$", "--",
		"-listen", addr, "-tcp=false", "-hint", string(auth.Addr()))
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	if err := awaitAnswer(addr, "host.cachetest.nl.", exited); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("recursived exited with %v after SIGTERM\n%s", err, &out)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("recursived still running 2 s after SIGTERM\n%s", &out)
	}
	if !strings.Contains(out.String(), "stats: client=") {
		t.Errorf("no stats line logged on the way out:\n%s", &out)
	}
}

// freeUDPAddr returns a loopback UDP address nothing listens on.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}

// awaitAnswer queries addr for name AAAA until a response comes back,
// for up to 10 s or until the daemon exits.
func awaitAnswer(addr, name string, exited <-chan error) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	wire, err := dnswire.NewQuery(7, name, dnswire.TypeAAAA).Pack()
	if err != nil {
		return err
	}
	buf := make([]byte, 512)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-exited:
			return fmt.Errorf("daemon exited before answering: %v", err)
		default:
		}
		conn.Write(wire) // refused until the daemon listens
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil {
			if m, err := dnswire.Unpack(buf[:n]); err == nil && m.Response && m.ID == 7 {
				return nil
			}
		}
	}
	return fmt.Errorf("no answer from %s within 10 s", addr)
}

// TestProfileAttempts builds the daemon's resolver from its command line,
// in front of eight upstreams that never answer, and runs it on a
// virtual clock: one client query gets the named profile's tries per
// fetch, then SERVFAIL. Eight servers keep every try inside the first
// 750 ms round, well before the 8 s client deadline.
func TestProfileAttempts(t *testing.T) {
	for _, tc := range []struct{ profile, mode string }{
		{"bind", "-hint"}, {"farm-balancer", "-forward"},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			args := []string{"-profile", tc.profile}
			for i := 1; i <= 8; i++ {
				args = append(args, tc.mode, fmt.Sprintf("127.0.0.1:%d", i))
			}
			fs := flag.NewFlagSet("recursived", flag.ContinueOnError)
			d, err := parseFlags(fs, args)
			if err != nil {
				t.Fatal(err)
			}
			row, _ := recursive.Profile(tc.profile)
			if d.cfg.MaxAttempts != row.MaxAttempts || d.cfg.WorkBudget != row.WorkBudget {
				t.Fatalf("-profile %s: %d tries, budget %d; the row has %d, %d", tc.profile,
					d.cfg.MaxAttempts, d.cfg.WorkBudget, row.MaxAttempts, row.WorkBudget)
			}
			clk := clock.NewVirtual(time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC))
			n := netsim.New(clk, 1)
			r := recursive.New(clk, &d.cfg, 1)
			r.Attach(n, "127.0.0.1:5301")
			var got *recursive.Result
			r.Resolve("host.cachetest.nl.", dnswire.TypeAAAA, 0, func(res recursive.Result) { got = &res })
			clk.RunFor(time.Minute)
			if got == nil || !got.ServFail {
				t.Fatalf("result %+v, want SERVFAIL", got)
			}
			if st := r.Stats(); st.UpstreamQueries != int64(row.MaxAttempts) {
				t.Errorf("-profile %s: %d upstream queries, want the row's %d tries", tc.profile, st.UpstreamQueries, row.MaxAttempts)
			}
		})
	}
	fs := flag.NewFlagSet("recursived", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parseFlags(fs, []string{"-profile", "nosuch", "-hint", "127.0.0.1:1"}); err == nil {
		t.Error("-profile nosuch was accepted")
	}
}
