package dnswire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// RData is the typed contents of a resource record. Implementations are
// value types; Equal compares semantic equality (used for cache updates and
// duplicate suppression).
type RData interface {
	// RType is the record type this data belongs to.
	RType() Type
	// String renders the data in master-file presentation format.
	String() string
	// Equal reports whether other carries the same data.
	Equal(other RData) bool

	encode(b *builder)
	// wireLen is the length of the uncompressed encoding, or the error of
	// an embedded name ValidName refuses (Pack cannot encode one).
	wireLen() (int, error)
}

// A is an IPv4 address record.
type A struct {
	Addr netip.Addr
}

// RType implements RData.
func (A) RType() Type { return TypeA }

func (a A) String() string { return a.Addr.String() }

// Equal implements RData.
func (a A) Equal(other RData) bool {
	o, ok := other.(A)
	return ok && a.Addr == o.Addr
}

func (a A) encode(b *builder) {
	v4 := a.Addr.As4()
	b.bytes(v4[:])
}

func (A) wireLen() (int, error) { return 4, nil }

// AAAA is an IPv6 address record.
type AAAA struct {
	Addr netip.Addr
}

// RType implements RData.
func (AAAA) RType() Type { return TypeAAAA }

func (a AAAA) String() string { return a.Addr.String() }

// Equal implements RData.
func (a AAAA) Equal(other RData) bool {
	o, ok := other.(AAAA)
	return ok && a.Addr == o.Addr
}

func (a AAAA) encode(b *builder) {
	v6 := a.Addr.As16()
	b.bytes(v6[:])
}

func (AAAA) wireLen() (int, error) { return 16, nil }

// NS names an authoritative nameserver for the owner zone.
type NS struct {
	Host string
}

// RType implements RData.
func (NS) RType() Type { return TypeNS }

func (n NS) String() string { return n.Host }

// Equal implements RData.
func (n NS) Equal(other RData) bool {
	o, ok := other.(NS)
	return ok && CanonicalName(n.Host) == CanonicalName(o.Host)
}

func (n NS) encode(b *builder) { b.name(n.Host, true) }

func (n NS) wireLen() (int, error) { return nameLen(n.Host) }

// CNAME aliases the owner name to Target.
type CNAME struct {
	Target string
}

// RType implements RData.
func (CNAME) RType() Type { return TypeCNAME }

func (c CNAME) String() string { return c.Target }

// Equal implements RData.
func (c CNAME) Equal(other RData) bool {
	o, ok := other.(CNAME)
	return ok && CanonicalName(c.Target) == CanonicalName(o.Target)
}

func (c CNAME) encode(b *builder) { b.name(c.Target, true) }

func (c CNAME) wireLen() (int, error) { return nameLen(c.Target) }

// PTR points the owner name at Target (reverse mapping).
type PTR struct {
	Target string
}

// RType implements RData.
func (PTR) RType() Type { return TypePTR }

func (p PTR) String() string { return p.Target }

// Equal implements RData.
func (p PTR) Equal(other RData) bool {
	o, ok := other.(PTR)
	return ok && CanonicalName(p.Target) == CanonicalName(o.Target)
}

func (p PTR) encode(b *builder) { b.name(p.Target, true) }

func (p PTR) wireLen() (int, error) { return nameLen(p.Target) }

// MX names a mail exchanger with a preference.
type MX struct {
	Pref uint16
	Host string
}

// RType implements RData.
func (MX) RType() Type { return TypeMX }

func (m MX) String() string { return strconv.Itoa(int(m.Pref)) + " " + m.Host }

// Equal implements RData.
func (m MX) Equal(other RData) bool {
	o, ok := other.(MX)
	return ok && m.Pref == o.Pref && CanonicalName(m.Host) == CanonicalName(o.Host)
}

func (m MX) encode(b *builder) {
	b.uint16(m.Pref)
	b.name(m.Host, true)
}

func (m MX) wireLen() (int, error) {
	n, err := nameLen(m.Host)
	return 2 + n, err
}

// TXT carries one or more character strings.
type TXT struct {
	Strings []string
}

// RType implements RData.
func (TXT) RType() Type { return TypeTXT }

func (t TXT) String() string {
	parts := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		parts[i] = strconv.Quote(s)
	}
	return strings.Join(parts, " ")
}

// Equal implements RData.
func (t TXT) Equal(other RData) bool {
	o, ok := other.(TXT)
	if !ok || len(t.Strings) != len(o.Strings) {
		return false
	}
	for i := range t.Strings {
		if t.Strings[i] != o.Strings[i] {
			return false
		}
	}
	return true
}

func (t TXT) encode(b *builder) {
	for _, s := range t.Strings {
		b.byte(uint8(len(s)))
		b.bytes([]byte(s))
	}
}

func (t TXT) wireLen() (int, error) {
	n := 0
	for _, s := range t.Strings {
		n += 1 + len(s)
	}
	return n, nil
}

// SOA is the start-of-authority record for a zone. Minimum doubles as the
// negative-caching TTL (RFC 2308).
type SOA struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// RType implements RData.
func (SOA) RType() Type { return TypeSOA }

func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// Equal implements RData.
func (s SOA) Equal(other RData) bool {
	o, ok := other.(SOA)
	return ok && CanonicalName(s.MName) == CanonicalName(o.MName) &&
		CanonicalName(s.RName) == CanonicalName(o.RName) &&
		s.Serial == o.Serial && s.Refresh == o.Refresh &&
		s.Retry == o.Retry && s.Expire == o.Expire && s.Minimum == o.Minimum
}

func (s SOA) encode(b *builder) {
	b.name(s.MName, true)
	b.name(s.RName, true)
	b.uint32(s.Serial)
	b.uint32(s.Refresh)
	b.uint32(s.Retry)
	b.uint32(s.Expire)
	b.uint32(s.Minimum)
}

func (s SOA) wireLen() (int, error) {
	m, err := nameLen(s.MName)
	if err != nil {
		return 0, err
	}
	r, err := nameLen(s.RName)
	return m + r + 20, err
}

// DS is a delegation-signer digest, stored at the parent side of a
// delegation. (Used for the Figure 5 Root/"nl DS" workload.)
type DS struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// RType implements RData.
func (DS) RType() Type { return TypeDS }

func (d DS) String() string {
	return fmt.Sprintf("%d %d %d %s", d.KeyTag, d.Algorithm, d.DigestType,
		strings.ToUpper(hex.EncodeToString(d.Digest)))
}

// Equal implements RData.
func (d DS) Equal(other RData) bool {
	o, ok := other.(DS)
	return ok && d.KeyTag == o.KeyTag && d.Algorithm == o.Algorithm &&
		d.DigestType == o.DigestType && bytes.Equal(d.Digest, o.Digest)
}

func (d DS) encode(b *builder) {
	b.uint16(d.KeyTag)
	b.byte(d.Algorithm)
	b.byte(d.DigestType)
	b.bytes(d.Digest)
}

func (d DS) wireLen() (int, error) { return 4 + len(d.Digest), nil }

// OPT is the EDNS0 pseudo-record (RFC 6891). Only the UDP payload size is
// interpreted; options are carried opaquely.
type OPT struct {
	Options []byte
}

// RType implements RData.
func (OPT) RType() Type { return TypeOPT }

func (o OPT) String() string { return "OPT " + hex.EncodeToString(o.Options) }

// Equal implements RData.
func (o OPT) Equal(other RData) bool {
	v, ok := other.(OPT)
	return ok && bytes.Equal(o.Options, v.Options)
}

func (o OPT) encode(b *builder) { b.bytes(o.Options) }

func (o OPT) wireLen() (int, error) { return len(o.Options), nil }

// Unknown carries the raw RDATA of a record type this package does not
// interpret. It round-trips losslessly.
type Unknown struct {
	Type Type
	Data []byte
}

// RType implements RData.
func (u Unknown) RType() Type { return u.Type }

func (u Unknown) String() string {
	return fmt.Sprintf("\\# %d %s", len(u.Data), hex.EncodeToString(u.Data))
}

// Equal implements RData.
func (u Unknown) Equal(other RData) bool {
	o, ok := other.(Unknown)
	return ok && u.Type == o.Type && bytes.Equal(u.Data, o.Data)
}

func (u Unknown) encode(b *builder) { b.bytes(u.Data) }

func (u Unknown) wireLen() (int, error) { return len(u.Data), nil }

// MustAddr parses s as an IP address and panics on failure. It is a
// convenience for building fixture records.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic("dnswire: bad address literal: " + s)
	}
	return a
}
