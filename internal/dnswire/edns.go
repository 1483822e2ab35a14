package dnswire

// EDNS0 (RFC 6891) helpers. The OPT pseudo-record reuses the RR fields:
// Class carries the requester's UDP payload size and the TTL carries the
// extended RCODE and flags, of which bit 15 is DO ("DNSSEC OK").

// ednsDOBit is the DO flag in the OPT TTL field.
const ednsDOBit = 1 << 15

// ClassicUDPPayload is the DNS-over-UDP response-size limit without
// EDNS0 (RFC 1035 §4.2.1).
const ClassicUDPPayload = 512

// AddEDNS appends an OPT record advertising udpSize, with the DO bit set
// when do is true. Any existing OPT is replaced.
func (m *Message) AddEDNS(udpSize uint16, do bool) {
	var ttl uint32
	if do {
		ttl = ednsDOBit
	}
	opt := RR{Name: ".", Class: Class(udpSize), TTL: ttl, Data: OPT{}}
	for i, rr := range m.Additionals {
		if rr.Type() == TypeOPT {
			m.Additionals[i] = opt
			return
		}
	}
	m.Additionals = append(m.Additionals, opt)
}

// EDNS returns the message's OPT parameters: the advertised UDP size and
// the DO bit. ok is false when no OPT record is present.
func (m *Message) EDNS() (udpSize uint16, do bool, ok bool) {
	for _, rr := range m.Additionals {
		if rr.Type() == TypeOPT {
			return uint16(rr.Class), rr.TTL&ednsDOBit != 0, true
		}
	}
	return 0, false, false
}

// UDPPayloadLimit returns the UDP response-size budget this message's
// sender advertised: ClassicUDPPayload octets unless an OPT record
// raises it (RFC 6891 §6.2.3: values below 512 are treated as 512).
func (m *Message) UDPPayloadLimit() int {
	if size, _, ok := m.EDNS(); ok && int(size) > ClassicUDPPayload {
		return int(size)
	}
	return ClassicUDPPayload
}

// Truncate turns m into its TC=1 form in place (RFC 6891, RFC 2181): the
// data sections are emptied, keeping their storage, but for the OPT
// record, so the receiver still sees the sender's EDNS parameters and can
// renegotiate or fall back to TCP.
func (m *Message) Truncate() {
	m.Truncated = true
	m.Answers, m.Authorities = m.Answers[:0], m.Authorities[:0]
	n := 0
	for _, rr := range m.Additionals {
		if rr.Type() == TypeOPT {
			m.Additionals[0], n = rr, 1
			break
		}
	}
	m.Additionals = m.Additionals[:n]
}
