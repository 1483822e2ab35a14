package zone

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/dnswire"
)

// Parse reads a zone in RFC 1035 master-file format. It supports $ORIGIN
// and $TTL directives, "@" for the origin, relative names, omitted
// TTL/class fields (inherited from the previous record or $TTL), comments,
// and parenthesized record continuation (as used for SOA records).
//
// The defaultOrigin is used until a $ORIGIN directive appears; pass "" to
// require an explicit $ORIGIN (or only absolute names).
func Parse(r io.Reader, defaultOrigin string) (*Zone, error) {
	p := &fileParser{
		origin:  dnswire.CanonicalName(defaultOrigin),
		class:   dnswire.ClassIN,
		scanner: bufio.NewScanner(r),
	}
	return p.run()
}

// ParseString is Parse on a string.
func ParseString(text, defaultOrigin string) (*Zone, error) {
	return Parse(strings.NewReader(text), defaultOrigin)
}

type fileParser struct {
	scanner *bufio.Scanner
	lineno  int
	fields  []string // splitFields' scratch, reused line after line

	origin    string
	class     dnswire.Class
	ttl       uint32
	haveTTL   bool
	lastOwner string

	zone *Zone // not shared until Parse returns, so inserts take no lock
}

func (p *fileParser) errf(format string, args ...any) error {
	return fmt.Errorf("zone file line %d: %s", p.lineno, fmt.Sprintf(format, args...))
}

// logicalLine returns the next line with comments stripped and parentheses
// folded (continuation lines merged), or io.EOF. A ';', '(' or ')' inside
// a quoted string is text, and a backslash there escapes the next byte.
// A physical line with none of ';', '(' and ')' — nearly every line of a
// large zone — is returned as it was read: a quote on it has nothing to
// protect, and outside parentheses its state ends with the line.
func (p *fileParser) logicalLine() (string, error) {
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
		if sb.Len() == 0 && strings.IndexAny(line, ";()") < 0 {
			if strings.TrimSpace(line) == "" {
				continue
			}
			return line, nil
		}
	scan:
		for i := 0; i < len(line); i++ {
			c := line[i]
			switch {
			case quoted && c == '\\' && i+1 < len(line):
				sb.WriteByte(c)
				i++
				c = line[i]
			case quoted:
				quoted = c != '"'
			case c == '"':
				quoted = true
			case c == ';':
				break scan
			case c == '(':
				depth++
				c = ' '
			case c == ')':
				if depth--; depth < 0 {
					return "", p.errf("unbalanced ')'")
				}
				c = ' '
			}
			sb.WriteByte(c)
		}
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

// splitFields is strings.Fields into the parser's reused scratch slice.
// An ASCII line is split here; a line with any byte ≥ 0x80 goes to
// strings.Fields itself, which also splits at Unicode white space.
func (p *fileParser) splitFields(line string) []string {
	fields := p.fields[:0]
	start := -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			return strings.Fields(line)
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			if start >= 0 {
				fields = append(fields, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		fields = append(fields, line[start:])
	}
	p.fields = fields
	return fields
}

func (p *fileParser) run() (*Zone, error) {
	for {
		line, err := p.logicalLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		startsBlank := line[0] == ' ' || line[0] == '\t'
		fields := p.splitFields(line)
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

func (p *fileParser) directive(fields []string) error {
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
		ttl, err := parseTTL(fields[1])
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

func (p *fileParser) record(fields []string, startsBlank bool) error {
	if p.zone == nil {
		p.zone = New(p.origin)
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
	// TTL and class may appear in either order before the type. Every TTL
	// starts with a digit, so no other token pays for a failed parseTTL.
	for len(fields) > 0 {
		f := fields[0]
		if '0' <= f[0] && f[0] <= '9' {
			if v, err := parseTTL(f); err == nil {
				ttl = v
				haveTTL = true
				fields = fields[1:]
				continue
			}
		}
		if strings.ToUpper(f) == "IN" {
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
	// Add's checks and insertion, without its lock: owner is canonical
	// already, and no one else holds the zone yet, so it shares no map.
	if err := p.zone.check(owner, data); err != nil {
		return p.errf("%v", err)
	}
	p.zone.addLocked(dnswire.RR{Name: owner, Class: p.class, TTL: ttl, Data: data})
	return nil
}

// checkQuotes rejects a quote anywhere but in TXT data. A quote opens a
// quoted string (see logicalLine), so a name holding one would change how
// Marshal's output of the record splits, and not survive it.
func (p *fileParser) checkQuotes(owner string, t dnswire.Type, rdata []string) error {
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

// absName resolves a possibly-relative master-file name against the origin.
func (p *fileParser) absName(s string) string {
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

func (p *fileParser) rdata(t dnswire.Type, fields []string) (dnswire.RData, error) {
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
		addr, err := parseAddr(fields[0], false)
		if err != nil {
			return nil, p.errf("A: %v", err)
		}
		return dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := wantN(1); err != nil {
			return nil, err
		}
		addr, err := parseAddr(fields[0], true)
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
		strs, err := joinQuoted(fields)
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
			v, err := parseTTL(fields[2+i])
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
		digest, err := parseHex(fields[3])
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

// maxTTL is the largest TTL a master file may state, in either form: RFC
// 2181 §8 caps a TTL at 2^31 - 1 seconds.
const maxTTL = 1<<31 - 1

// parseTTL parses a TTL that is either a plain number of seconds or a
// BIND-style duration like 1h30m, 2d, 1w (units in either case). Both
// running sums are checked against maxTTL after every step, so neither
// can wrap.
func parseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	var total, num uint64
	haveNum, haveUnit := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		var mult uint64
		switch c {
		case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			num = num*10 + uint64(c-'0')
			if num > maxTTL {
				return 0, fmt.Errorf("TTL %q too large", s)
			}
			haveNum = true
			continue
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
		default:
			return 0, fmt.Errorf("bad TTL %q", s)
		}
		if !haveNum {
			return 0, fmt.Errorf("bad TTL %q", s)
		}
		total += num * mult
		if total > maxTTL {
			return 0, fmt.Errorf("TTL %q too large", s)
		}
		num, haveNum, haveUnit = 0, false, true
	}
	switch {
	case !haveUnit:
		return uint32(num), nil
	case haveNum:
		return 0, fmt.Errorf("bad TTL %q", s)
	}
	return uint32(total), nil
}

func parseAddr(s string, want6 bool) (netip.Addr, error) {
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, err
	}
	if want6 != addr.Is6() {
		return netip.Addr{}, fmt.Errorf("address %s has wrong family", s)
	}
	return addr, nil
}

func parseHex(s string) ([]byte, error) {
	return hex.DecodeString(strings.ToLower(s))
}

// joinQuoted reassembles whitespace-split master-file fields into TXT
// character strings: quoted spans (possibly containing spaces) become one
// string each, bare tokens one string each.
func joinQuoted(fields []string) ([]string, error) {
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
