package netsim

import "hash/fnv"

// Anycast support (§2.2 of the paper): one service address announced from
// multiple sites, with BGP-like catchments mapping each source to a stable
// site. The paper's §8 discussion — why the Root rode out its attacks
// while a DNS provider's customers suffered — depends on this replication
// model, and the RootVsCDN scenario exercises it.

// anycastGroup routes one shared address to its member sites.
type anycastGroup struct {
	sites     []Addr
	slots     []int32 // the sites' records
	catchment func(src Addr) int
}

// BindAnycast announces addr from every site in sites (each already bound
// with Bind). Packets to addr are delivered to the catchment-selected
// site; replies must be sent from addr (use the returned Port), as anycast
// services do. A nil catchment assigns sources to sites by stable hash.
//
// Per-site inbound loss still applies at the site's own address, so an
// attack can saturate one site while others stay clean — the uneven
// per-site damage observed in the root events [23].
func (n *Network) BindAnycast(addr Addr, sites []Addr, catchment func(src Addr) int) *Port {
	if len(sites) == 0 {
		panic("netsim: anycast group needs at least one site")
	}
	if catchment == nil {
		catchment = func(src Addr) int {
			h := fnv.New32a()
			h.Write([]byte(src))
			h.Write([]byte(addr))
			return int(h.Sum32() % uint32(len(sites)))
		}
	}
	group := &anycastGroup{sites: append([]Addr(nil), sites...), catchment: catchment}
	for _, site := range sites {
		group.slots = append(group.slots, n.slot(site))
	}
	n.record(addr).anycast = group
	return &Port{net: n, addr: addr}
}
