package trace

import "repro/internal/dnswire"

// Probe attribution. The testbed names every vantage point's record
// after its cell-local probe ID — "1414.cachetest.nl." — so a query name
// (or any DNS message carrying one) identifies the probe it serves.
// Infrastructure traffic (NS fetches, harvests, ns1.* addresses) has no
// leading decimal label and maps to probe 0.

// ProbeFromName extracts the probe ID from a query name whose first
// label is a decimal probe ID. Returns 0 when the name is not a
// per-probe name.
func ProbeFromName(name string) uint16 { return probeOfLabel(name, false) }

// ProbeFromMsg extracts the probe ID from the first question of m, nil
// or not, without packing it: ProbeFromWire of m packed. The first label
// may end the name, as packing supplies a missing trailing dot.
func ProbeFromMsg(m *dnswire.Message) uint16 {
	if m == nil || len(m.Questions) == 0 {
		return 0
	}
	return probeOfLabel(m.Questions[0].Name, true)
}

// probeOfLabel parses name's first label as a decimal probe ID; whole
// says whether the label may be the whole name.
func probeOfLabel(name string, whole bool) uint16 {
	var n uint32
	i := 0
	for ; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint32(c-'0')
		if n > 0xffff {
			return 0
		}
	}
	if i == 0 || i == len(name) && !whole || i < len(name) && name[i] != '.' {
		return 0
	}
	return uint16(n)
}

// ProbeFromWire extracts the probe ID from a wire-format DNS message by
// scanning the first label of the first question, allocation-free.
// Responses echo the question section, so both directions attribute.
// Returns 0 on malformed input or non-probe names.
func ProbeFromWire(payload []byte) uint16 {
	// Header is 12 bytes; QDCOUNT at offset 4 must be nonzero for a
	// question to follow.
	if len(payload) < 14 || payload[4] == 0 && payload[5] == 0 {
		return 0
	}
	l := int(payload[12])
	if l == 0 || l > 63 || 13+l > len(payload) {
		return 0
	}
	var n uint32
	for _, c := range payload[13 : 13+l] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint32(c-'0')
		if n > 0xffff {
			return 0
		}
	}
	return uint16(n)
}
