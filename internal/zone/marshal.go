package zone

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/dnswire"
)

// Marshal writes the zone in RFC 1035 master-file format: the $ORIGIN
// directive, the SOA first, then all other records sorted by owner name
// and type. The output round-trips through Parse.
func (z *Zone) Marshal(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "$ORIGIN %s\n", z.origin); err != nil {
		return err
	}

	z.mu.RLock()
	var rrs []dnswire.RR
	for name, nd := range z.nodes {
		for i, l := 0, nd.len(); i < l; i++ {
			rrs = append(rrs, nd.at(i).rr(name))
		}
	}
	z.mu.RUnlock()

	// SOA first, then apex, then by name/type. The sort is stable, so an
	// RRset's records, which one node holds in order, stay in order.
	sort.SliceStable(rrs, func(i, j int) bool {
		si := rrs[i].Type() == dnswire.TypeSOA
		sj := rrs[j].Type() == dnswire.TypeSOA
		if si != sj {
			return si
		}
		if rrs[i].Name != rrs[j].Name {
			if rrs[i].Name == z.origin {
				return true
			}
			if rrs[j].Name == z.origin {
				return false
			}
			return rrs[i].Name < rrs[j].Name
		}
		return rrs[i].Type() < rrs[j].Type()
	})

	for _, rr := range rrs {
		// The apex prints as "@": an owner column equal to a "$"-prefixed
		// origin would otherwise re-parse as a directive.
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
	return nil
}

// MarshalString renders the zone as a master-file string.
func (z *Zone) MarshalString() string {
	var sb strings.Builder
	_ = z.Marshal(&sb)
	return sb.String()
}
