//go:build !linux || 386

package udprun

import "net/netip"

// reader reads through the runtime's network poller, which Close wakes:
// only Linux wakes a blocking UDP read with shutdown(2).
func (c *Conn) reader() (read func([]byte) (int, netip.AddrPort, error), release func(), err error) {
	return c.pc.ReadFromUDPAddrPort, func() {}, nil
}

func (c *Conn) wake() {}
