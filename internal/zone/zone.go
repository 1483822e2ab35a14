// Package zone stores authoritative DNS zone data and implements the
// RFC 1034 §4.3.2 lookup algorithm: authoritative answers, referrals with
// glue, CNAME indirection, wildcard synthesis, and negative answers
// (NXDOMAIN / NODATA) carrying the SOA for RFC 2308 negative caching.
package zone

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dnswire"
)

// Key identifies an RRset within a zone.
type Key struct {
	Name string
	Type dnswire.Type
}

// ResultKind classifies the outcome of a zone lookup.
type ResultKind int

// Lookup outcomes.
const (
	// Success: Records holds the answer RRset.
	Success ResultKind = iota
	// Delegation: the name is at or below a zone cut; Records holds the NS
	// set of the cut, Glue the in-zone addresses of those servers.
	Delegation
	// NXDomain: the name does not exist; SOA is populated.
	NXDomain
	// NoData: the name exists but has no RRset of the queried type; SOA is
	// populated.
	NoData
	// CName: the name owns a CNAME and the query was for another type;
	// Records holds the CNAME RRset.
	CName
	// NotInZone: the name is not within this zone's origin.
	NotInZone
)

func (k ResultKind) String() string {
	switch k {
	case Success:
		return "Success"
	case Delegation:
		return "Delegation"
	case NXDomain:
		return "NXDomain"
	case NoData:
		return "NoData"
	case CName:
		return "CName"
	case NotInZone:
		return "NotInZone"
	}
	return fmt.Sprintf("ResultKind(%d)", int(k))
}

// Result is the outcome of Zone.Lookup.
type Result struct {
	Kind    ResultKind
	Records []dnswire.RR
	Glue    []dnswire.RR
	SOA     dnswire.RR // valid for NXDomain and NoData
}

// Zone is a set of RRsets under a common origin. It is safe for concurrent
// use.
type Zone struct {
	origin string

	mu      sync.RWMutex
	rrsets  map[Key][]dnswire.RR
	nodes   map[string]bool // names that exist (own data or have descendants)
	withers map[string]int  // descendant counts for node bookkeeping

	// cowSrc, when non-nil, marks this zone as a copy-on-write clone still
	// borrowing cowSrc's maps. The first mutation copies them (under
	// cowSrc's read lock) and detaches. See Clone.
	cowSrc *Zone
}

// New creates an empty zone rooted at origin.
func New(origin string) *Zone {
	return &Zone{
		origin:  dnswire.CanonicalName(origin),
		rrsets:  make(map[Key][]dnswire.RR),
		nodes:   make(map[string]bool),
		withers: make(map[string]int),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() string { return z.origin }

// Clone returns a logical copy of the zone: mutating either zone never
// shows through the other. The copy is lazy — it borrows the source's
// maps until its first mutation, when it deep-copies them (sharing RData
// values, which are immutable by contract). A clone that is only ever
// read, the common case for zones stamped out of a shared template, costs
// one struct allocation. Cloning also skips per-record name validation
// and node bookkeeping, which is much cheaper than replaying Add.
//
// Mutating the source while read-only clones are live is safe (the copy
// is taken under the source's lock), but such mutations may or may not be
// visible through a still-borrowing clone — clone from templates that no
// longer change.
func (z *Zone) Clone() *Zone {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return &Zone{
		origin:  z.origin,
		rrsets:  z.rrsets,
		nodes:   z.nodes,
		withers: z.withers,
		cowSrc:  z,
	}
}

// ensureOwnedLocked detaches a copy-on-write clone from its source before
// the first mutation. Caller holds z.mu for writing.
func (z *Zone) ensureOwnedLocked() {
	src := z.cowSrc
	if src == nil {
		return
	}
	src.mu.RLock()
	rrsets := make(map[Key][]dnswire.RR, len(z.rrsets))
	for k, v := range z.rrsets {
		rrsets[k] = copyRRs(v)
	}
	nodes := make(map[string]bool, len(z.nodes))
	for k, v := range z.nodes {
		nodes[k] = v
	}
	withers := make(map[string]int, len(z.withers))
	for k, v := range z.withers {
		withers[k] = v
	}
	src.mu.RUnlock()
	z.rrsets, z.nodes, z.withers, z.cowSrc = rrsets, nodes, withers, nil
}

// Add inserts rr into the zone. All records of one RRset must share a TTL;
// Add normalizes later records to the first one's TTL. Duplicate data is
// ignored.
func (z *Zone) Add(rr dnswire.RR) error {
	rr.Name = dnswire.CanonicalName(rr.Name)
	if err := z.check(rr.Name, rr.Data); err != nil {
		return err
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.ensureOwnedLocked()
	z.addLocked(rr)
	return nil
}

// check validates a record of the canonical owner name with data d.
func (z *Zone) check(name string, d dnswire.RData) error {
	if d == nil {
		return fmt.Errorf("zone %s: record %q has no data", z.origin, name)
	}
	if !dnswire.IsSubdomain(name, z.origin) {
		return fmt.Errorf("zone %s: record %q out of zone", z.origin, name)
	}
	if err := dnswire.ValidName(name); err != nil {
		return fmt.Errorf("zone %s: record %q: %w", z.origin, name, err)
	}
	return nil
}

// addLocked is Add's insertion of a checked record. Caller holds z.mu for
// writing on an owned zone.
func (z *Zone) addLocked(rr dnswire.RR) {
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	k := Key{Name: rr.Name, Type: rr.Type()}
	set := z.rrsets[k]
	for _, have := range set {
		if have.Data.Equal(rr.Data) {
			return
		}
	}
	if len(set) > 0 {
		rr.TTL = set[0].TTL
	}
	z.rrsets[k] = append(set, rr)
	z.addNodeLocked(rr.Name)
}

// addNodeLocked marks name and every ancestor up to the origin as existing.
func (z *Zone) addNodeLocked(name string) {
	for n := name; ; n = dnswire.Parent(n) {
		z.nodes[n] = true
		z.withers[n]++
		if n == z.origin || n == "." {
			break
		}
	}
}

func (z *Zone) removeNodeLocked(name string) {
	for n := name; ; n = dnswire.Parent(n) {
		z.withers[n]--
		if z.withers[n] <= 0 {
			delete(z.withers, n)
			delete(z.nodes, n)
		}
		if n == z.origin || n == "." {
			break
		}
	}
}

// MustAdd is Add, panicking on error. For fixture construction.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// Remove deletes the RRset (name, t). Removing a non-existent set is a
// no-op.
func (z *Zone) Remove(name string, t dnswire.Type) {
	_ = z.Replace(name, t, 0) // without data there is nothing to reject
}

// Replace atomically swaps the RRset (name, t) for the given records, all
// owned by name with TTL ttl; no data removes it. Every datum is checked
// first, so a rejected Replace changes nothing and a Lookup sees the old
// set or the new one, never neither. A set keeping its size is rewritten
// in place, as the harness's AAAA rotations are every round (§3.2).
func (z *Zone) Replace(name string, t dnswire.Type, ttl uint32, data ...dnswire.RData) error {
	name = dnswire.CanonicalName(name)
	distinct := true
	for i, d := range data {
		if err := z.check(name, d); err != nil {
			return err
		}
		if d.RType() != t {
			return fmt.Errorf("zone %s: replace %s with %s data", z.origin, t, d.RType())
		}
		for _, e := range data[:i] {
			distinct = distinct && !e.Equal(d)
		}
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := Key{Name: name, Type: t}
	if len(z.rrsets[k]) == 0 && len(data) == 0 {
		return nil
	}
	z.ensureOwnedLocked()
	old := z.rrsets[k]
	if distinct && len(old) == len(data) {
		for i, d := range data {
			old[i] = dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: ttl, Data: d}
		}
		return nil
	}
	delete(z.rrsets, k)
	for range old {
		z.removeNodeLocked(name)
	}
	for _, d := range data {
		z.addLocked(dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: ttl, Data: d})
	}
	return nil
}

// SOA returns the zone's SOA record.
func (z *Zone) SOA() (dnswire.RR, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	set := z.rrsets[Key{Name: z.origin, Type: dnswire.TypeSOA}]
	if len(set) == 0 {
		return dnswire.RR{}, false
	}
	return set[0], true
}

// Serial returns the zone serial from the SOA, or 0 if there is none.
func (z *Zone) Serial() uint32 {
	rr, ok := z.SOA()
	if !ok {
		return 0
	}
	return rr.Data.(dnswire.SOA).Serial
}

// BumpSerial increments the SOA serial, returning the new value.
func (z *Zone) BumpSerial() uint32 {
	z.mu.Lock()
	defer z.mu.Unlock()
	k := Key{Name: z.origin, Type: dnswire.TypeSOA}
	if len(z.rrsets[k]) == 0 {
		return 0
	}
	z.ensureOwnedLocked()
	set := z.rrsets[k]
	soa := set[0].Data.(dnswire.SOA)
	soa.Serial++
	set[0].Data = soa
	return soa.Serial
}

// RRSet returns a copy of the RRset (name, t).
func (z *Zone) RRSet(name string, t dnswire.Type) []dnswire.RR {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append([]dnswire.RR(nil), z.rrsets[Key{Name: name, Type: t}]...)
}

// Names returns all owner names in the zone, sorted.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	seen := make(map[string]bool)
	for k := range z.rrsets {
		seen[k.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the total number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, set := range z.rrsets {
		n += len(set)
	}
	return n
}

// Lookup resolves (name, qtype) within the zone per RFC 1034 §4.3.2.
func (z *Zone) Lookup(name string, qtype dnswire.Type) Result {
	var res Result
	res.Kind, res.SOA = z.AppendLookup(name, qtype, &res.Records, &res.Glue)
	return res
}

// AppendLookup is the allocation-free twin of Lookup: answer records are
// appended onto *recs and delegation glue onto *glue (both may grow), and
// the result kind plus the zone SOA (set only for negative answers) are
// returned. Callers reusing slice capacity pay no per-lookup allocations.
func (z *Zone) AppendLookup(name string, qtype dnswire.Type, recs, glue *[]dnswire.RR) (ResultKind, dnswire.RR) {
	name = dnswire.CanonicalName(name)
	if !dnswire.IsSubdomain(name, z.origin) {
		return NotInZone, dnswire.RR{}
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Zone cut? Walk from just below the apex toward the name. A NS set at
	// an intermediate (or the queried) name that is not the apex marks a
	// delegation. DS queries are answered by the parent side of the cut.
	if cut := z.cutLocked(name, qtype); cut != "" {
		ns := z.rrsets[Key{Name: cut, Type: dnswire.TypeNS}]
		*recs = append(*recs, ns...)
		z.appendGlueLocked(glue, ns)
		return Delegation, dnswire.RR{}
	}

	if set := z.rrsets[Key{Name: name, Type: qtype}]; len(set) > 0 {
		*recs = append(*recs, set...)
		return Success, dnswire.RR{}
	}
	if qtype != dnswire.TypeCNAME {
		if set := z.rrsets[Key{Name: name, Type: dnswire.TypeCNAME}]; len(set) > 0 {
			*recs = append(*recs, set...)
			return CName, dnswire.RR{}
		}
	}
	if z.nodes[name] {
		return NoData, z.soaLocked()
	}
	// Wildcard synthesis: find the closest encloser and test *.<encloser>.
	if kind, ok := z.appendWildcardLocked(name, qtype, recs); ok {
		if kind == NoData {
			return NoData, z.soaLocked()
		}
		return kind, dnswire.RR{}
	}
	return NXDomain, z.soaLocked()
}

// cutLocked returns the name of the zone cut covering name, or "".
//
// Every candidate cut is a suffix of the canonical name strictly longer
// than the apex, so the walk slices name at label boundaries instead of
// splitting and re-joining labels — zero allocations on the per-query
// lookup path.
func (z *Zone) cutLocked(name string, qtype dnswire.Type) string {
	limit := len(name) - len(z.origin)
	if z.origin == "." {
		limit = len(name)
	}
	// Candidate cut names from shallowest (just below apex) to the name.
	for o := prevLabelStart(name, limit); o >= 0; o = prevLabelStart(name, o) {
		candidate := name[o:]
		if len(z.rrsets[Key{Name: candidate, Type: dnswire.TypeNS}]) == 0 {
			continue
		}
		// The parent is authoritative for DS at the cut itself.
		if candidate == name && qtype == dnswire.TypeDS {
			continue
		}
		return candidate
	}
	return ""
}

// prevLabelStart returns the largest label-start offset in name strictly
// below bound, or -1 when none remains.
func prevLabelStart(name string, bound int) int {
	if bound <= 0 {
		return -1
	}
	if i := strings.LastIndexByte(name[:bound-1], '.'); i >= 0 {
		return i + 1
	}
	return 0
}

func (z *Zone) appendGlueLocked(glue *[]dnswire.RR, ns []dnswire.RR) {
	for _, rr := range ns {
		host := dnswire.CanonicalName(rr.Data.(dnswire.NS).Host)
		if !dnswire.IsSubdomain(host, z.origin) {
			continue
		}
		*glue = append(*glue, z.rrsets[Key{Name: host, Type: dnswire.TypeA}]...)
		*glue = append(*glue, z.rrsets[Key{Name: host, Type: dnswire.TypeAAAA}]...)
	}
}

func (z *Zone) appendWildcardLocked(name string, qtype dnswire.Type, recs *[]dnswire.RR) (ResultKind, bool) {
	for n := dnswire.Parent(name); dnswire.IsSubdomain(n, z.origin); n = dnswire.Parent(n) {
		wc := dnswire.Join("*", n)
		if set := z.rrsets[Key{Name: wc, Type: qtype}]; len(set) > 0 {
			start := len(*recs)
			*recs = append(*recs, set...)
			for i := range (*recs)[start:] {
				(*recs)[start+i].Name = name
			}
			return Success, true
		}
		if z.nodes[wc] {
			// A wildcard exists but not for this type: NODATA.
			return NoData, true
		}
		if z.nodes[n] {
			// The closest encloser exists without a matching wildcard:
			// stop, the answer is NXDOMAIN.
			return 0, false
		}
		if n == z.origin || n == "." {
			break
		}
	}
	return 0, false
}

func (z *Zone) soaLocked() dnswire.RR {
	if set := z.rrsets[Key{Name: z.origin, Type: dnswire.TypeSOA}]; len(set) > 0 {
		return set[0]
	}
	return dnswire.RR{}
}

func copyRRs(rrs []dnswire.RR) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	return append([]dnswire.RR(nil), rrs...)
}
