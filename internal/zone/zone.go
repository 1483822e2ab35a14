// Package zone stores authoritative DNS zone data and implements the
// RFC 1034 §4.3.2 lookup algorithm: authoritative answers, referrals with
// glue, CNAME indirection, wildcard synthesis, and negative answers
// (NXDOMAIN / NODATA) carrying the SOA for RFC 2308 negative caching.
package zone

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/dnswire"
)

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

	mu sync.RWMutex
	// nodes holds one node per existing name, keyed by canonical name: a
	// name exists while it owns records or has records below it, and a
	// node that owns none is an empty non-terminal.
	nodes map[string]node
	// below counts the records strictly below the apex. It lives here, not
	// in the apex's node, so inserting a name one label below the apex
	// touches no node but its own.
	below int
	// shared marks nodes, and the overflows its nodes point to, as
	// possibly read by another zone: the next mutation copies them first,
	// so a shared map is never written. See Clone.
	shared bool
	// nsecOwners lists the names owning an NSEC set in canonical order,
	// for PrecedingNSEC. It is built on first use and is nil until then
	// and again after a write adds or removes NSEC records; it is never
	// written in place, so a clone shares it.
	nsecOwners []string
}

// node is what a zone holds for one owner name, stored in the map by
// value: a name costs one map slot and, with one record, no allocation
// beyond its key and its data.
type node struct {
	first record    // the name's first record; data is nil when it owns none
	more  *[]record // its further records, of any type, in insertion order
	below int       // records strictly below the name; 0 at the apex (Zone.below)
}

// record is one record of a node, owned by the node's name.
type record struct {
	typ   dnswire.Type
	class dnswire.Class
	ttl   uint32
	data  dnswire.RData
}

func (r *record) rr(owner string) dnswire.RR {
	return dnswire.RR{Name: owner, Class: r.class, TTL: r.ttl, Data: r.data}
}

// len returns the number of records the node's name owns.
func (n *node) len() int {
	switch {
	case n.first.data == nil:
		return 0
	case n.more == nil:
		return 1
	}
	return 1 + len(*n.more)
}

// at returns the name's i-th record: the inline first one, then the
// overflow.
func (n *node) at(i int) *record {
	if i == 0 {
		return &n.first
	}
	return &(*n.more)[i-1]
}

// appendSet appends the name's records of type t, owned by owner, onto
// *dst and returns how many it appended.
func (n *node) appendSet(dst *[]dnswire.RR, owner string, t dnswire.Type) int {
	k := 0
	for i, l := 0, n.len(); i < l; i++ {
		if r := n.at(i); r.typ == t {
			*dst = append(*dst, r.rr(owner))
			k++
		}
	}
	return k
}

// count returns the number of the name's records of type t.
func (n *node) count(t dnswire.Type) int {
	k := 0
	for i, l := 0, n.len(); i < l; i++ {
		if n.at(i).typ == t {
			k++
		}
	}
	return k
}

// add inserts r unless the name owns the same data already, and reports
// whether it did. A record joining a set takes the set's TTL: all records
// of one RRset share one.
func (n *node) add(r record) bool {
	if n.first.data == nil {
		n.first = r
		return true
	}
	for i, l := 0, n.len(); i < l; i++ {
		if have := n.at(i); have.typ == r.typ {
			if have.data.Equal(r.data) {
				return false
			}
			r.ttl = have.ttl
		}
	}
	if n.more == nil {
		n.more = &[]record{r}
	} else {
		*n.more = append(*n.more, r)
	}
	return true
}

// removeType deletes the name's records of type t, keeping the order of
// the others, and returns how many it deleted.
func (n *node) removeType(t dnswire.Type) int {
	l, kept := n.len(), 0
	for i := 0; i < l; i++ {
		if r := *n.at(i); r.typ != t {
			*n.at(kept) = r
			kept++
		}
	}
	if kept == l {
		return 0
	}
	switch kept {
	case 0:
		n.first, n.more = record{}, nil
	case 1:
		n.more = nil
	default:
		clear((*n.more)[kept-1:])
		*n.more = (*n.more)[:kept-1]
	}
	return l - kept
}

// New creates an empty zone rooted at origin.
func New(origin string) *Zone {
	return &Zone{
		origin: dnswire.CanonicalName(origin),
		nodes:  make(map[string]node),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() string { return z.origin }

// Clone returns a logical copy of the zone: mutating either zone never
// shows through the other. The copy is lazy — the two zones share one
// node map until either mutates, which first copies the map and deep-
// copies the few overflows its nodes point to (sharing RData values,
// which are immutable by contract). A clone that is only ever read, the
// common case for zones stamped out of a shared template, costs one
// struct allocation, and cloning skips the per-record name validation
// and bookkeeping of replaying Add.
func (z *Zone) Clone() *Zone {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.shared = true
	return &Zone{origin: z.origin, nodes: z.nodes, below: z.below, shared: true, nsecOwners: z.nsecOwners}
}

// ensureOwnedLocked gives the zone its own copy of a node map it shares.
// Caller holds z.mu for writing.
func (z *Zone) ensureOwnedLocked() {
	if !z.shared {
		return
	}
	nodes := maps.Clone(z.nodes)
	for name, nd := range nodes {
		if nd.more != nil {
			more := slices.Clone(*nd.more)
			nd.more = &more
			nodes[name] = nd
		}
	}
	z.nodes, z.shared = nodes, false
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

// addLocked is Add's insertion of a checked record with a canonical owner
// name. Caller holds z.mu for writing on an owned zone.
func (z *Zone) addLocked(rr dnswire.RR) {
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	typ := rr.Type()
	nd := z.nodes[rr.Name]
	if nd.add(record{typ: typ, class: rr.Class, ttl: rr.TTL, data: rr.Data}) {
		z.nodes[rr.Name] = nd
		z.countBelowLocked(rr.Name, 1)
		if typ == dnswire.TypeNSEC {
			z.nsecOwners = nil
		}
	}
}

// storeLocked writes nd back as name's node, or deletes the node when no
// record is left at or below name.
func (z *Zone) storeLocked(name string, nd node) {
	if nd.first.data == nil && nd.below == 0 && (name != z.origin || z.below == 0) {
		delete(z.nodes, name)
		return
	}
	z.nodes[name] = nd
}

// countBelowLocked adds k to the count of records below every proper
// ancestor of name, creating the empty non-terminals a new name needs and
// deleting those a removal leaves empty.
func (z *Zone) countBelowLocked(name string, k int) {
	if k == 0 || name == z.origin {
		return
	}
	for n := dnswire.Parent(name); n != z.origin; n = dnswire.Parent(n) {
		nd := z.nodes[n]
		nd.below += k
		z.storeLocked(n, nd)
	}
	was := z.below
	z.below += k
	if was == 0 || z.below == 0 {
		// The apex starts or stops existing without data of its own.
		z.storeLocked(z.origin, z.nodes[z.origin])
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
	nd := z.nodes[name]
	have := nd.count(t)
	if have == 0 && len(data) == 0 {
		return nil
	}
	if z.shared {
		z.ensureOwnedLocked()
		nd = z.nodes[name] // its overflow is now the copy's
	}
	if distinct && have == len(data) {
		for i, j := 0, 0; j < len(data); i++ {
			if r := nd.at(i); r.typ == t {
				*r = record{typ: t, class: dnswire.ClassIN, ttl: ttl, data: data[j]}
				j++
			}
		}
		z.nodes[name] = nd
		return nil
	}
	k := -nd.removeType(t)
	for _, d := range data {
		if nd.add(record{typ: t, class: dnswire.ClassIN, ttl: ttl, data: d}) {
			k++
		}
	}
	z.storeLocked(name, nd)
	z.countBelowLocked(name, k)
	if t == dnswire.TypeNSEC {
		z.nsecOwners = nil
	}
	return nil
}

// SOA returns the zone's SOA record.
func (z *Zone) SOA() (dnswire.RR, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	soa := z.soaLocked()
	return soa, soa.Data != nil
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
	if z.soaLocked().Data == nil {
		return 0
	}
	z.ensureOwnedLocked()
	nd := z.nodes[z.origin]
	for i := 0; ; i++ {
		if r := nd.at(i); r.typ == dnswire.TypeSOA {
			soa := r.data.(dnswire.SOA)
			soa.Serial++
			r.data = soa
			z.nodes[z.origin] = nd
			return soa.Serial
		}
	}
}

// RRSet returns a copy of the RRset (name, t).
func (z *Zone) RRSet(name string, t dnswire.Type) []dnswire.RR {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	var set []dnswire.RR
	nd := z.nodes[name]
	nd.appendSet(&set, name, t)
	return set
}

// AppendSigs appends name's RRSIG records covering type covered onto
// *dst, without the copy of the whole RRSIG set RRSet makes. name must be
// canonical.
func (z *Zone) AppendSigs(dst *[]dnswire.RR, name string, covered dnswire.Type) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	nd := z.nodes[name]
	for i, l := 0, nd.len(); i < l; i++ {
		r := nd.at(i)
		if sig, ok := r.data.(dnswire.RRSIG); ok && r.typ == dnswire.TypeRRSIG && sig.TypeCovered == covered {
			*dst = append(*dst, r.rr(name))
		}
	}
}

// Names returns all owner names in the zone, sorted.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	names := make([]string, 0, len(z.nodes))
	for n, nd := range z.nodes {
		if nd.first.data != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// PrecedingNSEC returns the first NSEC record of name's canonical
// predecessor (RFC 4034 §6.1) among the names owning one: name itself if
// it owns one, else the last such name sorting before it, wrapping to the
// canonically last when none does. In a well-formed chain that record
// covers name. ok is false when the zone has no NSEC records. The owners
// are sorted once, on the first call after a write changed them, so a
// call is a binary search.
func (z *Zone) PrecedingNSEC(name string) (dnswire.RR, bool) {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	if z.nsecOwners != nil {
		defer z.mu.RUnlock()
		return z.precedingNSECLocked(name)
	}
	z.mu.RUnlock()
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.nsecOwners == nil {
		owners := []string{} // built, even when empty
		for n, nd := range z.nodes {
			if nd.count(dnswire.TypeNSEC) > 0 {
				owners = append(owners, n)
			}
		}
		slices.SortFunc(owners, dnswire.CompareCanonical)
		z.nsecOwners = owners
	}
	return z.precedingNSECLocked(name)
}

// precedingNSECLocked is PrecedingNSEC's search of the built owner list.
// Caller holds z.mu.
func (z *Zone) precedingNSECLocked(name string) (dnswire.RR, bool) {
	owners := z.nsecOwners
	if len(owners) == 0 {
		return dnswire.RR{}, false
	}
	i, found := slices.BinarySearchFunc(owners, name, dnswire.CompareCanonical)
	if !found {
		i = (i + len(owners) - 1) % len(owners)
	}
	owner := owners[i]
	nd := z.nodes[owner]
	for k, l := 0, nd.len(); k < l; k++ {
		if r := nd.at(k); r.typ == dnswire.TypeNSEC {
			return r.rr(owner), true
		}
	}
	return dnswire.RR{}, false
}

// Len returns the total number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	apex := z.nodes[z.origin]
	return z.below + apex.len()
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

	// Walk from just below the apex down to the name, one node read per
	// name on the way: an NS set on the way, or at the name itself unless
	// the query is for DS (the parent side answers that), is a zone cut.
	// The first name that does not exist ends the walk: the name does not
	// exist either, and the last one read is its closest encloser. Every
	// candidate is a suffix of name, sliced at a label boundary.
	limit := len(name) - len(z.origin)
	if z.origin == "." {
		limit = len(name)
	}
	encloser := z.origin
	for o := prevLabelStart(name, limit); o >= 0; o = prevLabelStart(name, o) {
		candidate := name[o:]
		nd, ok := z.nodes[candidate]
		if !ok {
			return z.appendWildcardLocked(name, encloser, qtype, recs)
		}
		if o > 0 || qtype != dnswire.TypeDS {
			if k := nd.appendSet(recs, candidate, dnswire.TypeNS); k > 0 {
				z.appendGlueLocked(glue, (*recs)[len(*recs)-k:])
				return Delegation, dnswire.RR{}
			}
		}
		if o == 0 {
			return z.answerLocked(&nd, name, qtype, recs)
		}
		encloser = candidate
	}
	// The name is the apex.
	nd, ok := z.nodes[name]
	if !ok {
		return NXDomain, z.soaLocked()
	}
	return z.answerLocked(&nd, name, qtype, recs)
}

// answerLocked answers qtype from the node of an existing name (or of the
// wildcard standing in for it), appending records owned by owner: the set
// of qtype, else a CNAME, else NODATA.
func (z *Zone) answerLocked(nd *node, owner string, qtype dnswire.Type, recs *[]dnswire.RR) (ResultKind, dnswire.RR) {
	if nd.appendSet(recs, owner, qtype) > 0 {
		return Success, dnswire.RR{}
	}
	if qtype != dnswire.TypeCNAME && nd.appendSet(recs, owner, dnswire.TypeCNAME) > 0 {
		return CName, dnswire.RR{}
	}
	return NoData, z.soaLocked()
}

// appendWildcardLocked answers a name that does not exist: from the
// wildcard *.<encloser> if there is one (RFC 4592), else NXDOMAIN. The
// wildcard's name is built on the stack, and a map read keyed by a byte
// slice's string conversion does not allocate.
func (z *Zone) appendWildcardLocked(name, encloser string, qtype dnswire.Type, recs *[]dnswire.RR) (ResultKind, dnswire.RR) {
	var buf [256]byte
	wc := append(buf[:0], '*', '.')
	if encloser != "." {
		wc = append(wc, encloser...)
	}
	nd, ok := z.nodes[string(wc)]
	if !ok {
		return NXDomain, z.soaLocked()
	}
	return z.answerLocked(&nd, name, qtype, recs)
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
		nd := z.nodes[host]
		nd.appendSet(glue, host, dnswire.TypeA)
		nd.appendSet(glue, host, dnswire.TypeAAAA)
	}
}

func (z *Zone) soaLocked() dnswire.RR {
	apex := z.nodes[z.origin]
	for i, l := 0, apex.len(); i < l; i++ {
		if r := apex.at(i); r.typ == dnswire.TypeSOA {
			return r.rr(z.origin)
		}
	}
	return dnswire.RR{}
}
