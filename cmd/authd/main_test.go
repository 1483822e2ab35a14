package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// TestDaemonMain is the daemon itself when the test binary is re-executed
// with authd's arguments after "--"; in a plain test run it skips.
func TestDaemonMain(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs only as the daemon of TestStopsOnSIGTERM")
	}
	os.Args = append([]string{"authd"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("authd", flag.ExitOnError)
	main()
}

// TestStopsOnSIGTERM runs authd as a child process, waits for an answer,
// sends SIGTERM and expects a clean exit (status 0) within 2 s, and a log
// line that says how long the zone took to load.
func TestStopsOnSIGTERM(t *testing.T) {
	zoneFile := filepath.Join(t.TempDir(), "cachetest.zone")
	zoneText := "$ORIGIN cachetest.nl.\n$TTL 3600\n@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n" +
		"@ IN NS ns1\nns1 IN A 127.0.0.1\nhost IN AAAA 2001:db8::7\n"
	if err := os.WriteFile(zoneFile, []byte(zoneText), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeUDPAddr(t)
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonMain$", "--",
		"-listen", addr, "-tcp=false", "-zone", zoneFile)
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
			t.Fatalf("authd exited with %v after SIGTERM\n%s", err, &out)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("authd still running 2 s after SIGTERM\n%s", &out)
	}
	// The log, complete once the daemon exited, says how long the zone
	// took to load.
	loaded := regexp.MustCompile(`loaded zone cachetest\.nl\. \(4 records\) from (\S+) in (\S+)\n`).FindStringSubmatch(out.String())
	if loaded == nil || loaded[1] != zoneFile {
		t.Fatalf("no load line for %s in the log:\n%s", zoneFile, &out)
	}
	if d, err := time.ParseDuration(loaded[2]); err != nil || d <= 0 {
		t.Errorf("load time %q: %v, want a positive duration", loaded[2], err)
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
