// Command dnsq is a dig-like query client for the servers in this
// repository (or any DNS server speaking UDP):
//
//	dnsq @127.0.0.1:5301 AAAA 1414.cachetest.nl
//	dnsq -timeout 2s -retries 2 @127.0.0.1:5300 NS cachetest.nl
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/stub"
	"repro/internal/udprun"
)

func main() {
	timeout := flag.Duration("timeout", 5*time.Second, "query timeout")
	retries := flag.Int("retries", 0, "extra attempts on timeout")
	useTCP := flag.Bool("tcp", false, "query over TCP instead of UDP")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dnsq [flags] @server:port [type] name\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var server, qtypeStr, name string
	for _, arg := range flag.Args() {
		switch {
		case strings.HasPrefix(arg, "@"):
			server = strings.TrimPrefix(arg, "@")
		case qtypeStr == "" && dnswire.ParseType(strings.ToUpper(arg)) != dnswire.TypeNone && name == "":
			qtypeStr = strings.ToUpper(arg)
		default:
			name = arg
		}
	}
	if server == "" || name == "" {
		flag.Usage()
		os.Exit(2)
	}
	qtype := dnswire.TypeA
	if qtypeStr != "" {
		qtype = dnswire.ParseType(qtypeStr)
	}

	if *useTCP {
		queryTCP(server, name, qtype, *timeout)
		return
	}

	loop := udprun.NewLoop()
	conn, err := udprun.Listen("0.0.0.0:0", loop)
	if err == nil {
		server, err = serverAddr(server)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: %v\n", err)
		os.Exit(1)
	}
	client := stub.New(udprun.Clock{Loop: loop}, stub.Config{Timeout: *timeout, Retries: *retries})
	client.SetConn(conn)
	go conn.Serve(client.Receive)

	// Result.Msg is the client's scratch message, valid only until the
	// callback returns: what main prints is rendered inside it.
	type outcome struct {
		stub.Result
		text      string
		truncated bool
	}
	done := make(chan outcome, 1)
	loop.Post(func() {
		client.Query(netsim.Addr(server), name, qtype, func(r stub.Result) {
			o := outcome{Result: r}
			if r.Msg != nil {
				o.text, o.truncated = r.Msg.String(), r.Msg.Truncated
				o.Msg = nil
			}
			done <- o
		})
	})

	r := <-done
	if r.Err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: %v (after %v)\n", r.Err, r.RTT)
		os.Exit(1)
	}
	if r.truncated {
		fmt.Fprintln(os.Stderr, ";; truncated over UDP, retrying over TCP")
		queryTCP(server, name, qtype, *timeout)
		return
	}
	fmt.Printf(";; answer from %s in %v\n%s", r.Server, r.RTT.Round(time.Microsecond), r.text)
}

// serverAddr resolves @server, once, to the numeric "ip:port" a reply's
// source prints as: the stub drops a reply from any other string.
func serverAddr(server string) (string, error) {
	ua, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return "", err
	}
	return ua.String(), nil
}

// queryTCP performs the RFC 7766 exchange and prints the answer.
func queryTCP(server, name string, qtype dnswire.Type, timeout time.Duration) {
	q := dnswire.NewQuery(1, name, qtype)
	wire, err := q.Pack()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()
	out, err := udprun.TCPQuery(server, wire, timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: tcp: %v\n", err)
		os.Exit(1)
	}
	m, err := dnswire.Unpack(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: tcp: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf(";; answer from %s over TCP in %v\n%s", server,
		time.Since(start).Round(time.Microsecond), m)
}
