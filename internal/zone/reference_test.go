package zone

// The reference master-file parser: the straightforward parser file.go
// replaced, kept as the oracle FuzzParseMatchesReference holds Parse to.
// It differs from its last product version in two fixes only: parseTTL
// accumulates with overflow checks under the one ceiling maxTTL, and
// logicalLine strips no comment and folds no parenthesis inside quotes —
// which makes a quote syntax, so checkQuotes refuses one outside TXT data.
// Everything else — one strings.Builder per logical line, strings.Fields,
// a parseTTL attempt on every token before the type, a locked Zone.Add
// per record — is kept as it was, slow on purpose.

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/dnswire"
)

func refParse(r io.Reader, defaultOrigin string) (*Zone, error) {
	p := &refFileParser{
		origin:  dnswire.CanonicalName(defaultOrigin),
		class:   dnswire.ClassIN,
		scanner: bufio.NewScanner(r),
	}
	return p.run()
}

func refParseString(text, defaultOrigin string) (*Zone, error) {
	return refParse(strings.NewReader(text), defaultOrigin)
}

type refFileParser struct {
	scanner *bufio.Scanner
	lineno  int

	origin    string
	class     dnswire.Class
	ttl       uint32
	haveTTL   bool
	lastOwner string

	zone *Zone
}

func (p *refFileParser) errf(format string, args ...any) error {
	return fmt.Errorf("zone file line %d: %s", p.lineno, fmt.Sprintf(format, args...))
}

func (p *refFileParser) logicalLine() (string, error) {
	var sb strings.Builder
	depth := 0
	quoted := false
	for {
		if !p.scanner.Scan() {
			if err := p.scanner.Err(); err != nil {
				return "", err
			}
			if sb.Len() > 0 {
				return "", p.errf("unterminated parentheses at EOF")
			}
			return "", io.EOF
		}
		p.lineno++
		line := p.scanner.Text()
		for i := 0; i < len(line); i++ {
			if quoted {
				switch line[i] {
				case '\\':
					i++
				case '"':
					quoted = false
				}
				continue
			}
			switch line[i] {
			case '"':
				quoted = true
			case ';':
				line = line[:i]
				i = len(line)
			case '(':
				depth++
				line = line[:i] + " " + line[i+1:]
			case ')':
				depth--
				if depth < 0 {
					return "", p.errf("unbalanced ')'")
				}
				line = line[:i] + " " + line[i+1:]
			}
		}
		sb.WriteString(line)
		sb.WriteByte(' ')
		if depth == 0 {
			text := sb.String()
			if strings.TrimSpace(text) == "" {
				sb.Reset()
				continue
			}
			return text, nil
		}
	}
}

func (p *refFileParser) run() (*Zone, error) {
	for {
		line, err := p.logicalLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		startsBlank := line[0] == ' ' || line[0] == '\t'
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], "$") {
			if err := p.directive(fields); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.record(fields, startsBlank); err != nil {
			return nil, err
		}
	}
	if p.zone == nil {
		p.zone = New(p.origin)
	}
	return p.zone, nil
}

func (p *refFileParser) directive(fields []string) error {
	switch strings.ToUpper(fields[0]) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return p.errf("$ORIGIN wants one argument")
		}
		if !strings.HasSuffix(fields[1], ".") {
			return p.errf("$ORIGIN must be absolute")
		}
		if strings.IndexByte(fields[1], '"') >= 0 {
			return p.errf("quote in $ORIGIN %q", fields[1])
		}
		p.origin = dnswire.CanonicalName(fields[1])
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return p.errf("$TTL wants one argument")
		}
		ttl, err := refParseTTL(fields[1])
		if err != nil {
			return p.errf("$TTL: %v", err)
		}
		p.ttl = ttl
		p.haveTTL = true
		return nil
	default:
		return p.errf("unsupported directive %s", fields[0])
	}
}

func (p *refFileParser) ensureZone() error {
	if p.zone != nil {
		return nil
	}
	p.zone = New(p.origin)
	return nil
}

func (p *refFileParser) record(fields []string, startsBlank bool) error {
	if err := p.ensureZone(); err != nil {
		return err
	}
	owner := p.lastOwner
	if !startsBlank {
		owner = p.absName(fields[0])
		fields = fields[1:]
	}
	if owner == "" {
		return p.errf("record with no owner name")
	}
	p.lastOwner = owner

	ttl := p.ttl
	haveTTL := p.haveTTL
	// TTL and class may appear in either order before the type.
	for len(fields) > 0 {
		f := strings.ToUpper(fields[0])
		if v, err := refParseTTL(fields[0]); err == nil {
			ttl = v
			haveTTL = true
			fields = fields[1:]
			continue
		}
		if f == "IN" {
			p.class = dnswire.ClassIN
			fields = fields[1:]
			continue
		}
		break
	}
	if len(fields) == 0 {
		return p.errf("record for %s has no type", owner)
	}
	t := dnswire.ParseType(strings.ToUpper(fields[0]))
	if t == dnswire.TypeNone {
		return p.errf("unsupported record type %q", fields[0])
	}
	if !haveTTL {
		return p.errf("record for %s has no TTL and none inherited", owner)
	}
	if err := p.checkQuotes(owner, t, fields[1:]); err != nil {
		return err
	}
	data, err := p.rdata(t, fields[1:])
	if err != nil {
		return err
	}
	rr := dnswire.RR{Name: owner, Class: p.class, TTL: ttl, Data: data}
	if err := p.zone.Add(rr); err != nil {
		return p.errf("%v", err)
	}
	return nil
}

func (p *refFileParser) checkQuotes(owner string, t dnswire.Type, rdata []string) error {
	if strings.IndexByte(owner, '"') >= 0 {
		return p.errf("quote in owner name %q", owner)
	}
	if t == dnswire.TypeTXT {
		return nil
	}
	for _, f := range rdata {
		if strings.IndexByte(f, '"') >= 0 {
			return p.errf("quote in %s data %q", t, f)
		}
	}
	return nil
}

func (p *refFileParser) absName(s string) string {
	if s == "@" {
		return p.origin
	}
	if strings.HasSuffix(s, ".") {
		return dnswire.CanonicalName(s)
	}
	if p.origin == "." {
		return dnswire.CanonicalName(s + ".")
	}
	return dnswire.CanonicalName(s + "." + p.origin)
}

func (p *refFileParser) rdata(t dnswire.Type, fields []string) (dnswire.RData, error) {
	wantN := func(n int) error {
		if len(fields) != n {
			return p.errf("%s record wants %d fields, got %d", t, n, len(fields))
		}
		return nil
	}
	switch t {
	case dnswire.TypeA:
		if err := wantN(1); err != nil {
			return nil, err
		}
		addr, err := refParseAddr(fields[0], false)
		if err != nil {
			return nil, p.errf("A: %v", err)
		}
		return dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := wantN(1); err != nil {
			return nil, err
		}
		addr, err := refParseAddr(fields[0], true)
		if err != nil {
			return nil, p.errf("AAAA: %v", err)
		}
		return dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		if err := wantN(1); err != nil {
			return nil, err
		}
		return dnswire.NS{Host: p.absName(fields[0])}, nil
	case dnswire.TypeCNAME:
		if err := wantN(1); err != nil {
			return nil, err
		}
		return dnswire.CNAME{Target: p.absName(fields[0])}, nil
	case dnswire.TypePTR:
		if err := wantN(1); err != nil {
			return nil, err
		}
		return dnswire.PTR{Target: p.absName(fields[0])}, nil
	case dnswire.TypeMX:
		if err := wantN(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, p.errf("MX preference: %v", err)
		}
		return dnswire.MX{Pref: uint16(pref), Host: p.absName(fields[1])}, nil
	case dnswire.TypeTXT:
		if len(fields) == 0 {
			return nil, p.errf("TXT record wants at least one string")
		}
		strs, err := refJoinQuoted(fields)
		if err != nil {
			return nil, p.errf("TXT: %v", err)
		}
		return dnswire.TXT{Strings: strs}, nil
	case dnswire.TypeSOA:
		if err := wantN(7); err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			v, err := refParseTTL(fields[2+i])
			if err != nil {
				return nil, p.errf("SOA field %d: %v", 2+i, err)
			}
			nums[i] = v
		}
		return dnswire.SOA{
			MName: p.absName(fields[0]), RName: p.absName(fields[1]),
			Serial: nums[0], Refresh: nums[1], Retry: nums[2],
			Expire: nums[3], Minimum: nums[4],
		}, nil
	case dnswire.TypeDS:
		if err := wantN(4); err != nil {
			return nil, err
		}
		keyTag, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, p.errf("DS key tag: %v", err)
		}
		alg, err := strconv.ParseUint(fields[1], 10, 8)
		if err != nil {
			return nil, p.errf("DS algorithm: %v", err)
		}
		dt, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			return nil, p.errf("DS digest type: %v", err)
		}
		digest, err := refParseHex(fields[3])
		if err != nil {
			return nil, p.errf("DS digest: %v", err)
		}
		return dnswire.DS{
			KeyTag: uint16(keyTag), Algorithm: uint8(alg),
			DigestType: uint8(dt), Digest: digest,
		}, nil
	default:
		return nil, p.errf("no master-file syntax for type %s", t)
	}
}

func refParseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		if v > maxTTL {
			return 0, fmt.Errorf("TTL %q too large", s)
		}
		return uint32(v), nil
	}
	var total uint64
	num := uint64(0)
	haveNum := false
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
			if num > maxTTL {
				return 0, fmt.Errorf("TTL %q too large", s)
			}
			haveNum = true
		case c == 's' || c == 'm' || c == 'h' || c == 'd' || c == 'w':
			if !haveNum {
				return 0, fmt.Errorf("bad TTL %q", s)
			}
			var mult uint64
			switch c {
			case 's':
				mult = 1
			case 'm':
				mult = 60
			case 'h':
				mult = 3600
			case 'd':
				mult = 86400
			case 'w':
				mult = 604800
			}
			total += num * mult
			if total > maxTTL {
				return 0, fmt.Errorf("TTL %q too large", s)
			}
			num, haveNum = 0, false
		default:
			return 0, fmt.Errorf("bad TTL %q", s)
		}
	}
	if haveNum {
		return 0, fmt.Errorf("bad TTL %q", s)
	}
	return uint32(total), nil
}

func refParseAddr(s string, want6 bool) (netip.Addr, error) {
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, err
	}
	if want6 != addr.Is6() {
		return netip.Addr{}, fmt.Errorf("address %s has wrong family", s)
	}
	return addr, nil
}

func refParseHex(s string) ([]byte, error) {
	return hex.DecodeString(strings.ToLower(s))
}

func refJoinQuoted(fields []string) ([]string, error) {
	var out []string
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if !strings.HasPrefix(f, `"`) {
			out = append(out, f)
			continue
		}
		// Accumulate fields until the closing quote.
		parts := []string{strings.TrimPrefix(f, `"`)}
		closed := strings.HasSuffix(f, `"`) && len(f) > 1
		for !closed {
			i++
			if i >= len(fields) {
				return nil, fmt.Errorf("unterminated quoted string")
			}
			parts = append(parts, fields[i])
			closed = strings.HasSuffix(fields[i], `"`)
		}
		joined := strings.Join(parts, " ")
		out = append(out, strings.TrimSuffix(joined, `"`))
	}
	return out, nil
}
