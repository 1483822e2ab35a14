package dnswire

import (
	"bytes"
	"encoding/base64"
	"fmt"
)

// DNSSEC record types (RFC 4034).
const (
	TypeRRSIG  Type = 46
	TypeDNSKEY Type = 48
)

// DNSKEY is a zone's public key (RFC 4034 §2).
type DNSKEY struct {
	Flags     uint16 // 256 = ZSK, 257 = KSK (SEP bit)
	Protocol  uint8  // always 3
	Algorithm uint8  // 15 = Ed25519 (RFC 8080)
	PublicKey []byte
}

// RType implements RData.
func (DNSKEY) RType() Type { return TypeDNSKEY }

func (k DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %s", k.Flags, k.Protocol, k.Algorithm,
		base64.StdEncoding.EncodeToString(k.PublicKey))
}

// Equal implements RData.
func (k DNSKEY) Equal(other RData) bool {
	o, ok := other.(DNSKEY)
	return ok && k.Flags == o.Flags && k.Protocol == o.Protocol &&
		k.Algorithm == o.Algorithm && bytes.Equal(k.PublicKey, o.PublicKey)
}

func (k DNSKEY) encode(b *builder) {
	b.uint16(k.Flags)
	b.byte(k.Protocol)
	b.byte(k.Algorithm)
	b.bytes(k.PublicKey)
}

func (k DNSKEY) wireLen() (int, error) { return 4 + len(k.PublicKey), nil }

// RDataWire returns the record's RDATA in wire form (used for key-tag and
// DS digest computation).
func (k DNSKEY) RDataWire() []byte {
	b := builder{buf: make([]byte, 0, 4+len(k.PublicKey))}
	k.encode(&b)
	return b.buf
}

// RRSIG is a signature over one RRset (RFC 4034 §3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32 // seconds since the Unix epoch
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

// RType implements RData.
func (RRSIG) RType() Type { return TypeRRSIG }

func (r RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %s",
		r.TypeCovered, r.Algorithm, r.Labels, r.OriginalTTL,
		r.Expiration, r.Inception, r.KeyTag, r.SignerName,
		base64.StdEncoding.EncodeToString(r.Signature))
}

// Equal implements RData.
func (r RRSIG) Equal(other RData) bool {
	o, ok := other.(RRSIG)
	return ok && r.TypeCovered == o.TypeCovered && r.Algorithm == o.Algorithm &&
		r.Labels == o.Labels && r.OriginalTTL == o.OriginalTTL &&
		r.Expiration == o.Expiration && r.Inception == o.Inception &&
		r.KeyTag == o.KeyTag &&
		CanonicalName(r.SignerName) == CanonicalName(o.SignerName) &&
		bytes.Equal(r.Signature, o.Signature)
}

func (r RRSIG) encode(b *builder) {
	r.appendHeader(b)
	b.bytes(r.Signature)
}

func (r RRSIG) wireLen() (int, error) {
	n, err := nameLen(r.SignerName)
	return 18 + n + len(r.Signature), err
}

// appendHeader appends the RDATA up to and including the signer name —
// the part that is also prepended to the signed data (RFC 4034
// §3.1.8.1). The signer name is never compressed, and it registers no
// suffix, so no later name of the message points into it.
func (r RRSIG) appendHeader(b *builder) {
	b.uint16(uint16(r.TypeCovered))
	b.byte(r.Algorithm)
	b.byte(r.Labels)
	b.uint32(r.OriginalTTL)
	b.uint32(r.Expiration)
	b.uint32(r.Inception)
	b.uint16(r.KeyTag)
	compress := b.compress
	b.compress = false
	b.name(r.SignerName, false)
	b.compress = compress
}

// headerWire returns appendHeader's bytes on their own.
func (r RRSIG) headerWire() []byte {
	n, _ := nameLen(r.SignerName)
	b := builder{buf: make([]byte, 0, 18+n)}
	r.appendHeader(&b)
	return b.buf
}

// SignedHeader exposes headerWire for signature construction.
func (r RRSIG) SignedHeader() []byte { return r.headerWire() }

// decodeRRSIG parses an RRSIG RDATA.
func (p *parser) decodeRRSIG(end int) (RData, error) {
	var r RRSIG
	t, err := p.uint16()
	if err != nil {
		return nil, err
	}
	r.TypeCovered = Type(t)
	if r.Algorithm, err = p.byte(); err != nil {
		return nil, err
	}
	if r.Labels, err = p.byte(); err != nil {
		return nil, err
	}
	if r.OriginalTTL, err = p.uint32(); err != nil {
		return nil, err
	}
	if r.Expiration, err = p.uint32(); err != nil {
		return nil, err
	}
	if r.Inception, err = p.uint32(); err != nil {
		return nil, err
	}
	if r.KeyTag, err = p.uint16(); err != nil {
		return nil, err
	}
	if r.SignerName, err = p.name(); err != nil {
		return nil, err
	}
	sig, err := p.bytes(end - p.off)
	if err != nil {
		return nil, err
	}
	r.Signature = append([]byte(nil), sig...)
	return r, nil
}

// decodeDNSKEY parses a DNSKEY RDATA.
func (p *parser) decodeDNSKEY(end int) (RData, error) {
	var k DNSKEY
	var err error
	if k.Flags, err = p.uint16(); err != nil {
		return nil, err
	}
	if k.Protocol, err = p.byte(); err != nil {
		return nil, err
	}
	if k.Algorithm, err = p.byte(); err != nil {
		return nil, err
	}
	pub, err := p.bytes(end - p.off)
	if err != nil {
		return nil, err
	}
	k.PublicKey = append([]byte(nil), pub...)
	return k, nil
}

// KeyTag computes the RFC 4034 Appendix B key tag of a DNSKEY.
func (k DNSKEY) KeyTag() uint16 {
	rdata := k.RDataWire()
	var acc uint32
	for i, b := range rdata {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += (acc >> 16) & 0xFFFF
	return uint16(acc & 0xFFFF)
}

// NameWire returns a name's uncompressed wire encoding (canonical form),
// used in DS digests and canonical RR ordering.
func NameWire(name string) []byte {
	n, _ := nameLen(name)
	b := builder{buf: make([]byte, 0, n)}
	b.name(name, false)
	return b.buf
}

// RDataWireOf renders any RData's wire form (no compression), for
// canonical signing input. A builder handed to an interface method
// escapes, so this one is pooled and the bytes copied out.
func RDataWireOf(d RData) []byte {
	b := newBuilder(false)
	d.encode(b)
	out := bytes.Clone(b.buf)
	b.release()
	return out
}
