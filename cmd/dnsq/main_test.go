package main

import "testing"

// TestServerAddr: whatever form @server takes, the stub is handed the
// string a reply from that server carries as its source.
func TestServerAddr(t *testing.T) {
	for server, want := range map[string]string{
		"localhost:5300": "127.0.0.1:5300",
		"127.0.0.1:5300": "127.0.0.1:5300",
		"[::1]:5301":     "[::1]:5301",
	} {
		got, err := serverAddr(server)
		// localhost is ::1 on a host whose hosts file lists no v4 address.
		if err != nil || got != want && !(server == "localhost:5300" && got == "[::1]:5300") {
			t.Errorf("serverAddr(%q) = %q, %v, want %q", server, got, err, want)
		}
	}
	if _, err := serverAddr("127.0.0.1"); err == nil {
		t.Error("an address without a port was accepted")
	}
}
