// Package dnssec implements DNSSEC signing and validation with Ed25519
// (algorithm 15, RFC 8080): key generation, RFC 4034 canonical RRset
// signing, RRSIG verification, DS digests (RFC 4509), and whole-zone
// signing. The paper notes that DNSSEC's extra records (RRSIG, DNSKEY,
// DS) ride the same caches with their own TTLs (§1); this package makes
// the testbed's zones signable so those records exist end to end.
//
// Scope: positive answers only — authenticated denial (NSEC/NSEC3) is not
// implemented.
package dnssec

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/dnswire"
)

// AlgorithmEd25519 is the DNSSEC algorithm number for Ed25519 (RFC 8080).
const AlgorithmEd25519 = 15

// FlagZone is the DNSKEY flags value of a zone-signing key.
const FlagZone = 256

// Validation errors.
var (
	ErrNoSignature    = errors.New("dnssec: no covering RRSIG")
	ErrBadSignature   = errors.New("dnssec: signature verification failed")
	ErrExpired        = errors.New("dnssec: signature expired or not yet valid")
	ErrKeyMismatch    = errors.New("dnssec: RRSIG does not match the key")
	ErrEmptyRRSet     = errors.New("dnssec: empty RRset")
	ErrUnsupportedAlg = errors.New("dnssec: unsupported algorithm")
)

// Key is a zone signing key pair.
type Key struct {
	Zone    string
	Public  dnswire.DNSKEY
	private ed25519.PrivateKey
}

// GenerateKey creates an Ed25519 zone key. Pass crypto/rand.Reader in
// production; tests may pass a deterministic reader.
func GenerateKey(zone string, flags uint16, rng io.Reader) (*Key, error) {
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("dnssec: %w", err)
	}
	return &Key{
		Zone: dnswire.CanonicalName(zone),
		Public: dnswire.DNSKEY{
			Flags: flags, Protocol: 3, Algorithm: AlgorithmEd25519,
			PublicKey: append([]byte(nil), pub...),
		},
		private: priv,
	}, nil
}

// KeyTag returns the key's RFC 4034 tag.
func (k *Key) KeyTag() uint16 { return k.Public.KeyTag() }

// DNSKEYRecord returns the apex DNSKEY RR with the given TTL.
func (k *Key) DNSKEYRecord(ttl uint32) dnswire.RR {
	return dnswire.RR{Name: k.Zone, Class: dnswire.ClassIN, TTL: ttl, Data: k.Public}
}

// DS returns the parent-side delegation-signer record for this key
// (SHA-256 digest, RFC 4509).
func (k *Key) DS(ttl uint32) dnswire.RR {
	h := sha256.New()
	h.Write(dnswire.NameWire(k.Zone))
	h.Write(k.Public.RDataWire())
	return dnswire.RR{
		Name: k.Zone, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.DS{
			KeyTag: k.KeyTag(), Algorithm: AlgorithmEd25519,
			DigestType: 2, Digest: h.Sum(nil),
		},
	}
}

// signedData builds the RFC 4034 §3.1.8.1 input: RRSIG header || each RR
// in canonical form (owner lowercase, original TTL, RDATA wire), sorted by
// RDATA.
func signedData(header []byte, rrs []dnswire.RR, originalTTL uint32) []byte {
	type canon struct{ owner, rdata []byte }
	canons := make([]canon, 0, len(rrs))
	for _, rr := range rrs {
		canons = append(canons, canon{
			owner: dnswire.NameWire(dnswire.CanonicalName(rr.Name)),
			rdata: dnswire.RDataWireOf(rr.Data),
		})
	}
	sort.Slice(canons, func(i, j int) bool {
		return bytes.Compare(canons[i].rdata, canons[j].rdata) < 0
	})

	var buf bytes.Buffer
	buf.Write(header)
	for _, c := range canons {
		buf.Write(c.owner)
		t := rrs[0].Type()
		buf.Write([]byte{byte(t >> 8), byte(t)})
		buf.Write([]byte{0, 1}) // class IN
		buf.Write([]byte{
			byte(originalTTL >> 24), byte(originalTTL >> 16),
			byte(originalTTL >> 8), byte(originalTTL),
		})
		buf.Write([]byte{byte(len(c.rdata) >> 8), byte(len(c.rdata))})
		buf.Write(c.rdata)
	}
	return buf.Bytes()
}

// Sign produces the RRSIG RR covering rrs, valid from inception to
// expiration. All records must share owner, class, type, and TTL.
func (k *Key) Sign(rrs []dnswire.RR, inception, expiration time.Time) (dnswire.RR, error) {
	if len(rrs) == 0 {
		return dnswire.RR{}, ErrEmptyRRSet
	}
	owner := dnswire.CanonicalName(rrs[0].Name)
	if !dnswire.IsSubdomain(owner, k.Zone) {
		return dnswire.RR{}, fmt.Errorf("dnssec: %s out of zone %s", owner, k.Zone)
	}
	labels := dnswire.CountLabels(owner)
	if len(dnswire.SplitLabels(owner)) > 0 && dnswire.SplitLabels(owner)[0] == "*" {
		labels-- // wildcard labels are not counted (RFC 4034 §3.1.3)
	}
	sig := dnswire.RRSIG{
		TypeCovered: rrs[0].Type(),
		Algorithm:   AlgorithmEd25519,
		Labels:      uint8(labels),
		OriginalTTL: rrs[0].TTL,
		Expiration:  uint32(expiration.Unix()),
		Inception:   uint32(inception.Unix()),
		KeyTag:      k.KeyTag(),
		SignerName:  k.Zone,
	}
	data := signedData(sig.SignedHeader(), rrs, rrs[0].TTL)
	sig.Signature = ed25519.Sign(k.private, data)
	return dnswire.RR{
		Name: owner, Class: dnswire.ClassIN, TTL: rrs[0].TTL, Data: sig,
	}, nil
}

// Verify checks sig over rrs against the public key at the given time.
func Verify(key dnswire.DNSKEY, sigRR dnswire.RR, rrs []dnswire.RR, at time.Time) error {
	sig, ok := sigRR.Data.(dnswire.RRSIG)
	if !ok {
		return ErrNoSignature
	}
	if len(rrs) == 0 {
		return ErrEmptyRRSet
	}
	if key.Algorithm != AlgorithmEd25519 || sig.Algorithm != AlgorithmEd25519 {
		return ErrUnsupportedAlg
	}
	if sig.KeyTag != key.KeyTag() {
		return ErrKeyMismatch
	}
	now := uint32(at.Unix())
	if now < sig.Inception || now > sig.Expiration {
		return ErrExpired
	}
	if sig.TypeCovered != rrs[0].Type() {
		return fmt.Errorf("%w: covers %s, RRset is %s", ErrKeyMismatch,
			sig.TypeCovered, rrs[0].Type())
	}
	// Validation uses the RRSIG's original TTL, so cache decrementing
	// does not break signatures.
	data := signedData(sig.SignedHeader(), rrs, sig.OriginalTTL)
	if !ed25519.Verify(ed25519.PublicKey(key.PublicKey), data, sig.Signature) {
		return ErrBadSignature
	}
	return nil
}

// VerifyDS checks that a DNSKEY matches its parent-side DS record.
func VerifyDS(ds dnswire.DS, zone string, key dnswire.DNSKEY) error {
	if ds.DigestType != 2 {
		return ErrUnsupportedAlg
	}
	h := sha256.New()
	h.Write(dnswire.NameWire(dnswire.CanonicalName(zone)))
	h.Write(key.RDataWire())
	if !bytes.Equal(h.Sum(nil), ds.Digest) {
		return ErrBadSignature
	}
	if ds.KeyTag != key.KeyTag() {
		return ErrKeyMismatch
	}
	return nil
}
