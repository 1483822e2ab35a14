package dnssec

import (
	"sort"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// BuildNSECChain adds the zone's NSEC records (RFC 4035 §2.3): every name
// with authoritative data links to the next in canonical order, carrying
// the bitmap of types present; the last name wraps to the apex. Call it
// before SignZone so the chain gets signed. Existing NSEC records are
// replaced.
func BuildNSECChain(z *zone.Zone) error {
	for _, name := range z.Names() {
		z.Remove(name, dnswire.TypeNSEC)
	}

	// Authoritative owner names only: skip occluded glue; keep cut names
	// (they own the NSEC proving the delegation's type set).
	var names []string
	for _, name := range z.Names() {
		if isGlue(z, name) {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Slice(names, func(i, j int) bool {
		return dnswire.CompareCanonical(names[i], names[j]) < 0
	})

	negTTL := uint32(60)
	if soa, ok := z.SOA(); ok {
		if s, ok := soa.Data.(dnswire.SOA); ok {
			negTTL = s.Minimum
		}
	}

	for i, name := range names {
		next := names[(i+1)%len(names)]
		types := typesAt(z, name)
		types = append(types, dnswire.TypeNSEC, dnswire.TypeRRSIG)
		if err := z.Add(dnswire.RR{
			Name: name, Class: dnswire.ClassIN, TTL: negTTL,
			Data: dnswire.NSEC{NextName: next, Types: types},
		}); err != nil {
			return err
		}
	}
	return nil
}

// typesAt lists the record types present at name.
func typesAt(z *zone.Zone, name string) []dnswire.Type {
	var types []dnswire.Type
	for _, t := range []dnswire.Type{
		dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME,
		dnswire.TypeSOA, dnswire.TypePTR, dnswire.TypeMX, dnswire.TypeTXT,
		dnswire.TypeDS, dnswire.TypeDNSKEY,
	} {
		if len(z.RRSet(name, t)) > 0 {
			types = append(types, t)
		}
	}
	return types
}

// isGlue reports whether name sits strictly below a zone cut.
func isGlue(z *zone.Zone, name string) bool {
	name = dnswire.CanonicalName(name)
	for n := dnswire.Parent(name); dnswire.IsSubdomain(n, z.Origin()); n = dnswire.Parent(n) {
		if n == z.Origin() {
			return false
		}
		if len(z.RRSet(n, dnswire.TypeNS)) > 0 {
			return true
		}
	}
	return false
}

// CoveringNSEC finds the zone's NSEC record proving the nonexistence of
// qname (for NXDOMAIN) or, when qname exists, the NSEC at qname itself
// (whose bitmap proves NODATA). ok is false when the zone has no chain or
// no record of it covers qname. The cost does not grow with the zone: the
// candidate is qname's canonical predecessor in the chain, found by
// binary search (zone.PrecedingNSEC).
func CoveringNSEC(z *zone.Zone, qname string) (dnswire.RR, bool) {
	qname = dnswire.CanonicalName(qname)
	rr, ok := z.PrecedingNSEC(qname)
	if !ok {
		return dnswire.RR{}, false
	}
	if rr.Name == qname {
		return rr, true
	}
	if nsec, isNSEC := rr.Data.(dnswire.NSEC); isNSEC && nsec.Covers(rr.Name, qname) {
		return rr, true
	}
	return dnswire.RR{}, false
}

// VerifyDenial checks that nsecRR proves qname/qtype does not exist: either
// the NSEC covers qname (name error), or it is owned by qname and its type
// bitmap lacks qtype (no data).
func VerifyDenial(nsecRR dnswire.RR, qname string, qtype dnswire.Type) bool {
	nsec, ok := nsecRR.Data.(dnswire.NSEC)
	if !ok {
		return false
	}
	qname = dnswire.CanonicalName(qname)
	owner := dnswire.CanonicalName(nsecRR.Name)
	if owner == qname {
		for _, t := range nsec.Types {
			if t == qtype {
				return false
			}
		}
		return true
	}
	return nsec.Covers(owner, qname)
}
