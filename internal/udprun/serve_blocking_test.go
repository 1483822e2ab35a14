//go:build linux && !386

package udprun

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"unsafe"
)

// TestScopedSourceZone decodes a link-local source scoped to lo: the
// zone is the interface's name, as ReadFromUDPAddrPort gives it, and
// once memoized the decode costs no allocation (each used to dump the
// kernel's interface table).
func TestScopedSourceZone(t *testing.T) {
	lo, err := net.InterfaceByName("lo")
	if err != nil {
		t.Skipf("no loopback interface: %v", err)
	}
	var sa syscall.RawSockaddrAny
	in := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&sa))
	in.Family = syscall.AF_INET6
	in.Addr = [16]byte{0: 0xfe, 1: 0x80, 15: 1}
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&in.Port))[:], 5300)
	in.Scope_id = uint32(lo.Index)

	var c Conn
	want := netip.MustParseAddrPort("[fe80::1%lo]:5300")
	if got := c.sockaddrAddrPort(&sa); got != want {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	var got netip.AddrPort
	if allocs := testing.AllocsPerRun(100, func() { got = c.sockaddrAddrPort(&sa) }); allocs != 0 {
		t.Errorf("a repeat decode allocates %.1f objects, want 0", allocs)
	}
	if got != want {
		t.Errorf("repeat decode %v, want %v", got, want)
	}
}
