//go:build linux && !386

package udprun

import (
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// reader reads with a blocking recvfrom(2) on a close-on-exec duplicate
// of the socket, having cleared O_NONBLOCK on the file description the
// two share. It calls Syscall6, not RawSyscall6, so the runtime knows the
// thread sleeps and runs timers and other goroutines meanwhile.
func (c *Conn) reader() (read func([]byte) (int, netip.AddrPort, error), release func(), err error) {
	var fd uintptr
	var errno syscall.Errno
	if err := c.rc.Control(func(s uintptr) {
		fd, _, errno = syscall.Syscall(syscall.SYS_FCNTL, s, syscall.F_DUPFD_CLOEXEC, 0)
	}); err != nil {
		return nil, nil, err
	}
	if errno != 0 {
		return nil, nil, os.NewSyscallError("fcntl", errno)
	}
	if err := syscall.SetNonblock(int(fd), false); err != nil {
		syscall.Close(int(fd))
		return nil, nil, os.NewSyscallError("fcntl", err)
	}
	read = func(buf []byte) (int, netip.AddrPort, error) {
		for {
			var from syscall.RawSockaddrAny
			fromLen := uint32(syscall.SizeofSockaddrAny)
			n, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd, uintptr(unsafe.Pointer(&buf[0])),
				uintptr(len(buf)), 0, uintptr(unsafe.Pointer(&from)), uintptr(unsafe.Pointer(&fromLen)))
			if errno == 0 {
				return int(n), c.sockaddrAddrPort(&from), nil
			} else if errno != syscall.EINTR {
				return 0, netip.AddrPort{}, os.NewSyscallError("recvfrom", errno)
			}
		}
	}
	return read, func() { syscall.Close(int(fd)) }, nil
}

// sockaddrAddrPort decodes a source as ReadFromUDPAddrPort does: 4-in-6
// stays 16 octets and a v6 scope is named by its interface.
func (c *Conn) sockaddrAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	port := func(p *uint16) uint16 { return binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(p))[:]) }
	if sa.Addr.Family == syscall.AF_INET {
		in := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(in.Addr), port(&in.Port))
	}
	in := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	ip := netip.AddrFrom16(in.Addr)
	if id := int(in.Scope_id); id != 0 {
		ip = ip.WithZone(c.zoneName(id))
	}
	return netip.AddrPortFrom(ip, port(&in.Port))
}

// zoneName names the interface of scope id, or formats id when there is
// none. A name costs a netlink dump, so it is memoized like a peer (net
// caches the same way for ReadFromUDPAddrPort).
func (c *Conn) zoneName(id int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	zone, ok := c.zones[id]
	if !ok {
		zone = strconv.Itoa(id)
		if ifi, err := net.InterfaceByIndex(id); err == nil {
			zone = ifi.Name
		}
		if c.zones == nil || len(c.zones) >= maxPeers {
			c.zones = make(map[int]string)
		}
		c.zones[id] = zone
	}
	return zone
}

// wake ends a blocked read: on an unconnected UDP socket Linux's
// shutdown(SHUT_RD) reports ENOTCONN but still marks the socket shut and
// wakes its readers, which then read 0 octets.
func (c *Conn) wake() {
	_ = c.rc.Control(func(s uintptr) { _ = syscall.Shutdown(int(s), syscall.SHUT_RD) })
}
