package dnswire

import (
	"fmt"
	"sort"
	"strings"
)

// TypeNSEC is the authenticated-denial record (RFC 4034 §4).
const TypeNSEC Type = 47

// NSEC links an owner name to the next name in the zone's canonical order
// and lists the types present at the owner, proving what does not exist.
type NSEC struct {
	NextName string
	Types    []Type
}

// RType implements RData.
func (NSEC) RType() Type { return TypeNSEC }

func (n NSEC) String() string {
	parts := []string{n.NextName}
	for _, t := range n.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

// Equal implements RData. The type bitmap is a set: order-insensitive.
func (n NSEC) Equal(other RData) bool {
	o, ok := other.(NSEC)
	if !ok || CanonicalName(n.NextName) != CanonicalName(o.NextName) ||
		len(n.Types) != len(o.Types) {
		return false
	}
	a := append([]Type(nil), n.Types...)
	b := append([]Type(nil), o.Types...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (n NSEC) encode(b *builder) {
	b.name(n.NextName, false) // never compressed (RFC 3597 / 4034)
	// Type bitmap: window blocks of up to 32 octets, in ascending order.
	windows := nsecWindows(n.Types)
	for w, octets := range windows {
		if octets == 0 {
			continue
		}
		var bitmap [32]byte
		for _, t := range n.Types {
			if int(t>>8) == w {
				bitmap[uint8(t)/8] |= 0x80 >> (uint8(t) % 8)
			}
		}
		b.byte(byte(w))
		b.byte(octets)
		b.bytes(bitmap[:octets])
	}
}

func (n NSEC) wireLen() (int, error) {
	l, err := nameLen(n.NextName)
	if err != nil {
		return 0, err
	}
	for _, octets := range nsecWindows(n.Types) {
		if octets > 0 {
			l += 2 + int(octets)
		}
	}
	return l, nil
}

// nsecWindows returns the octets each window block of the types' bitmap
// needs, 0 for a window no type falls in.
func nsecWindows(types []Type) (octets [256]uint8) {
	for _, t := range types {
		if o := uint8(t)/8 + 1; o > octets[t>>8] {
			octets[t>>8] = o
		}
	}
	return octets
}

// decodeNSEC parses an NSEC RDATA.
func (p *parser) decodeNSEC(end int) (RData, error) {
	var n NSEC
	var err error
	if n.NextName, err = p.name(); err != nil {
		return nil, err
	}
	lastWindow := -1
	for p.off < end {
		window, err := p.byte()
		if err != nil {
			return nil, err
		}
		// RFC 4034 §4.1.2: window blocks in increasing order, no repeats.
		// Accepting repeats would let duplicate type bits survive to the
		// re-encoder, which canonicalizes the bitmap and silently changes
		// the record.
		if int(window) <= lastWindow {
			return nil, fmt.Errorf("dnswire: NSEC bitmap windows not ascending")
		}
		lastWindow = int(window)
		length, err := p.byte()
		if err != nil {
			return nil, err
		}
		if length == 0 || length > 32 {
			return nil, fmt.Errorf("dnswire: bad NSEC bitmap length %d", length)
		}
		octets, err := p.bytes(int(length))
		if err != nil {
			return nil, err
		}
		for oi, octet := range octets {
			for bit := 0; bit < 8; bit++ {
				if octet&(0x80>>bit) != 0 {
					n.Types = append(n.Types,
						Type(uint16(window)<<8|uint16(oi*8+bit)))
				}
			}
		}
	}
	return n, nil
}

// Covers reports whether this NSEC record (owned by owner) proves the
// nonexistence of name: owner < name < NextName in canonical order, with
// the last NSEC in the chain wrapping to the apex.
func (n NSEC) Covers(owner, name string) bool {
	owner = CanonicalName(owner)
	name = CanonicalName(name)
	next := CanonicalName(n.NextName)
	if CompareCanonical(owner, name) >= 0 {
		return false
	}
	if CompareCanonical(owner, next) < 0 {
		return CompareCanonical(name, next) < 0
	}
	// Wrap-around: owner is the canonically last name.
	return true
}

// CompareCanonical orders names per RFC 4034 §6.1: label by label from
// the root, case-insensitively, bytewise. It walks both names from the
// right without splitting them, so a comparison of canonical names
// allocates nothing (NSEC lookups binary-search with it per query).
func CompareCanonical(a, b string) int {
	a, b = CanonicalName(a), CanonicalName(b)
	// ea and eb end the labels not yet compared; -1 once none is left.
	ea, eb := len(a)-1, len(b)-1
	if a == "." {
		ea = -1
	}
	if b == "." {
		eb = -1
	}
	for {
		switch {
		case ea < 0 && eb < 0:
			return 0
		case ea < 0:
			return -1
		case eb < 0:
			return 1
		}
		sa := strings.LastIndexByte(a[:ea], '.') + 1
		sb := strings.LastIndexByte(b[:eb], '.') + 1
		if c := strings.Compare(a[sa:ea], b[sb:eb]); c != 0 {
			return c
		}
		ea, eb = sa-1, sb-1
	}
}
