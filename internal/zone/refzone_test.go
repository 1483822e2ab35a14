package zone

// The reference zone: the two-map store zone.go replaced, kept as the
// oracle FuzzZoneMatchesReference holds Zone to. It differs from its last
// product version in one fix only: a wildcard owning a CNAME answers a
// query for another type with that CNAME, owned by the query name (RFC 1034
// §4.3.2 step 3c, RFC 4592 §2.2.1). Everything else — an RRset map keyed
// by (name, type), a per-name count of records at or below the name, a
// wildcard name built by dnswire.Join — is kept as it was.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/dnswire"
)

// refKey identifies an RRset within a refZone.
type refKey struct {
	Name string
	Type dnswire.Type
}

type refZone struct {
	origin string

	mu     sync.RWMutex
	rrsets map[refKey][]dnswire.RR
	// withers counts, per name, the records at or below it: a name exists
	// (owns data or has descendants) exactly when its count is positive.
	withers map[string]int

	// cowSrc, when non-nil, marks this zone as a copy-on-write clone still
	// borrowing cowSrc's maps. The first mutation copies them (under
	// cowSrc's read lock) and detaches. See Clone.
	cowSrc *refZone
}

func newRefZone(origin string) *refZone {
	return &refZone{
		origin:  dnswire.CanonicalName(origin),
		rrsets:  make(map[refKey][]dnswire.RR),
		withers: make(map[string]int),
	}
}

func (z *refZone) Origin() string { return z.origin }

func (z *refZone) Clone() *refZone {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return &refZone{
		origin:  z.origin,
		rrsets:  z.rrsets,
		withers: z.withers,
		cowSrc:  z,
	}
}

func (z *refZone) ensureOwnedLocked() {
	src := z.cowSrc
	if src == nil {
		return
	}
	src.mu.RLock()
	rrsets := make(map[refKey][]dnswire.RR, len(z.rrsets))
	for k, v := range z.rrsets {
		rrsets[k] = refCopyRRs(v)
	}
	withers := make(map[string]int, len(z.withers))
	for k, v := range z.withers {
		withers[k] = v
	}
	src.mu.RUnlock()
	z.rrsets, z.withers, z.cowSrc = rrsets, withers, nil
}

func (z *refZone) Add(rr dnswire.RR) error {
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

func (z *refZone) check(name string, d dnswire.RData) error {
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

func (z *refZone) addLocked(rr dnswire.RR) {
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	k := refKey{Name: rr.Name, Type: rr.Type()}
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

func (z *refZone) addNodeLocked(name string) {
	for n := name; ; n = dnswire.Parent(n) {
		z.withers[n]++
		if n == z.origin || n == "." {
			break
		}
	}
}

func (z *refZone) removeNodeLocked(name string) {
	for n := name; ; n = dnswire.Parent(n) {
		z.withers[n]--
		if z.withers[n] <= 0 {
			delete(z.withers, n)
		}
		if n == z.origin || n == "." {
			break
		}
	}
}

func (z *refZone) Remove(name string, t dnswire.Type) {
	_ = z.Replace(name, t, 0)
}

func (z *refZone) Replace(name string, t dnswire.Type, ttl uint32, data ...dnswire.RData) error {
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
	k := refKey{Name: name, Type: t}
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

func (z *refZone) SOA() (dnswire.RR, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	set := z.rrsets[refKey{Name: z.origin, Type: dnswire.TypeSOA}]
	if len(set) == 0 {
		return dnswire.RR{}, false
	}
	return set[0], true
}

func (z *refZone) Serial() uint32 {
	rr, ok := z.SOA()
	if !ok {
		return 0
	}
	return rr.Data.(dnswire.SOA).Serial
}

func (z *refZone) BumpSerial() uint32 {
	z.mu.Lock()
	defer z.mu.Unlock()
	k := refKey{Name: z.origin, Type: dnswire.TypeSOA}
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

func (z *refZone) RRSet(name string, t dnswire.Type) []dnswire.RR {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append([]dnswire.RR(nil), z.rrsets[refKey{Name: name, Type: t}]...)
}

func (z *refZone) Names() []string {
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

func (z *refZone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, set := range z.rrsets {
		n += len(set)
	}
	return n
}

func (z *refZone) Lookup(name string, qtype dnswire.Type) Result {
	var res Result
	res.Kind, res.SOA = z.AppendLookup(name, qtype, &res.Records, &res.Glue)
	return res
}

func (z *refZone) AppendLookup(name string, qtype dnswire.Type, recs, glue *[]dnswire.RR) (ResultKind, dnswire.RR) {
	name = dnswire.CanonicalName(name)
	if !dnswire.IsSubdomain(name, z.origin) {
		return NotInZone, dnswire.RR{}
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	if cut := z.cutLocked(name, qtype); cut != "" {
		ns := z.rrsets[refKey{Name: cut, Type: dnswire.TypeNS}]
		*recs = append(*recs, ns...)
		z.appendGlueLocked(glue, ns)
		return Delegation, dnswire.RR{}
	}

	if set := z.rrsets[refKey{Name: name, Type: qtype}]; len(set) > 0 {
		*recs = append(*recs, set...)
		return Success, dnswire.RR{}
	}
	if qtype != dnswire.TypeCNAME {
		if set := z.rrsets[refKey{Name: name, Type: dnswire.TypeCNAME}]; len(set) > 0 {
			*recs = append(*recs, set...)
			return CName, dnswire.RR{}
		}
	}
	if z.withers[name] > 0 {
		return NoData, z.soaLocked()
	}
	if kind, ok := z.appendWildcardLocked(name, qtype, recs); ok {
		if kind == NoData {
			return NoData, z.soaLocked()
		}
		return kind, dnswire.RR{}
	}
	return NXDomain, z.soaLocked()
}

func (z *refZone) cutLocked(name string, qtype dnswire.Type) string {
	limit := len(name) - len(z.origin)
	if z.origin == "." {
		limit = len(name)
	}
	for o := refPrevLabelStart(name, limit); o >= 0; o = refPrevLabelStart(name, o) {
		candidate := name[o:]
		if len(z.rrsets[refKey{Name: candidate, Type: dnswire.TypeNS}]) == 0 {
			continue
		}
		if candidate == name && qtype == dnswire.TypeDS {
			continue
		}
		return candidate
	}
	return ""
}

func refPrevLabelStart(name string, bound int) int {
	if bound <= 0 {
		return -1
	}
	if i := strings.LastIndexByte(name[:bound-1], '.'); i >= 0 {
		return i + 1
	}
	return 0
}

func (z *refZone) appendGlueLocked(glue *[]dnswire.RR, ns []dnswire.RR) {
	for _, rr := range ns {
		host := dnswire.CanonicalName(rr.Data.(dnswire.NS).Host)
		if !dnswire.IsSubdomain(host, z.origin) {
			continue
		}
		*glue = append(*glue, z.rrsets[refKey{Name: host, Type: dnswire.TypeA}]...)
		*glue = append(*glue, z.rrsets[refKey{Name: host, Type: dnswire.TypeAAAA}]...)
	}
}

func (z *refZone) appendWildcardLocked(name string, qtype dnswire.Type, recs *[]dnswire.RR) (ResultKind, bool) {
	for n := dnswire.Parent(name); dnswire.IsSubdomain(n, z.origin); n = dnswire.Parent(n) {
		wc := dnswire.Join("*", n)
		if set := z.rrsets[refKey{Name: wc, Type: qtype}]; len(set) > 0 {
			start := len(*recs)
			*recs = append(*recs, set...)
			for i := range (*recs)[start:] {
				(*recs)[start+i].Name = name
			}
			return Success, true
		}
		// The fix: a wildcard CNAME is synthesized for any other type.
		if set := z.rrsets[refKey{Name: wc, Type: dnswire.TypeCNAME}]; qtype != dnswire.TypeCNAME && len(set) > 0 {
			start := len(*recs)
			*recs = append(*recs, set...)
			for i := range (*recs)[start:] {
				(*recs)[start+i].Name = name
			}
			return CName, true
		}
		if z.withers[wc] > 0 {
			return NoData, true
		}
		if z.withers[n] > 0 {
			return 0, false
		}
		if n == z.origin || n == "." {
			break
		}
	}
	return 0, false
}

func (z *refZone) soaLocked() dnswire.RR {
	if set := z.rrsets[refKey{Name: z.origin, Type: dnswire.TypeSOA}]; len(set) > 0 {
		return set[0]
	}
	return dnswire.RR{}
}

func refCopyRRs(rrs []dnswire.RR) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	return append([]dnswire.RR(nil), rrs...)
}

func (z *refZone) Marshal(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "$ORIGIN %s\n", z.origin); err != nil {
		return err
	}

	z.mu.RLock()
	keys := make([]refKey, 0, len(z.rrsets))
	for k := range z.rrsets {
		keys = append(keys, k)
	}
	sets := make(map[refKey][]dnswire.RR, len(z.rrsets))
	for k, set := range z.rrsets {
		sets[k] = append([]dnswire.RR(nil), set...)
	}
	z.mu.RUnlock()

	sort.Slice(keys, func(i, j int) bool {
		si := keys[i].Type == dnswire.TypeSOA
		sj := keys[j].Type == dnswire.TypeSOA
		if si != sj {
			return si
		}
		if keys[i].Name != keys[j].Name {
			if keys[i].Name == z.origin {
				return true
			}
			if keys[j].Name == z.origin {
				return false
			}
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Type < keys[j].Type
	})

	for _, k := range keys {
		for _, rr := range sets[k] {
			owner := rr.Name
			if owner == z.origin {
				owner = "@"
			}
			line := fmt.Sprintf("%s %d %s %s %s\n",
				owner, rr.TTL, rr.Class, rr.Type(), rr.Data)
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

func (z *refZone) MarshalString() string {
	var sb strings.Builder
	_ = z.Marshal(&sb)
	return sb.String()
}
