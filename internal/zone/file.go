package zone

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

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
	// The bytes are never written again and no string the zone keeps
	// points into them, so they are parsed in place. As with bufio.Scanner,
	// a read error is returned at the end of the lines read before it.
	b, err := readAll(r)
	return parse(unsafe.String(unsafe.SliceData(b), len(b)), defaultOrigin, err)
}

// readAll is io.ReadAll, but a reader that reports its size (a file,
// through Stat) is read into one buffer of that size, as os.ReadFile
// does, not into one grown by doubling.
func readAll(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && int64(int(fi.Size())) == fi.Size() {
			b.Grow(int(fi.Size()) + bytes.MinRead) // ReadFrom reads on while MinRead octets are free
		}
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// ParseString is Parse on a string, parsed in place.
func ParseString(text, defaultOrigin string) (*Zone, error) {
	return parse(text, defaultOrigin, nil)
}

func parse(text, defaultOrigin string, readErr error) (*Zone, error) {
	p := &fileParser{text: text, readErr: readErr, origin: dnswire.CanonicalName(defaultOrigin)}
	return p.run()
}

// maxLine is the longest physical line, its '\n' included, that the
// parser reads: bufio.Scanner's default token limit, whose error a
// longer line returns.
const maxLine = bufio.MaxScanTokenSize

type fileParser struct {
	text    string // the whole input; fields point into it, nothing kept does
	readErr error  // returned at the end of text, as the reader's error
	pos     int    // where the next physical line starts
	lineno  int    // physical lines read

	fields []string // the current logical line's fields, substrings of text
	quote  int      // index in fields of the first field holding '"', or -1
	name   []byte   // absName's scratch
	upper  []byte   // upperASCII's scratch

	origin    string
	ttl       uint32
	haveTTL   bool
	lastOwner string

	zone *Zone // not shared until Parse returns, so inserts take no lock
}

func (p *fileParser) errf(format string, args ...any) error {
	return fmt.Errorf("zone file line %d: %s", p.lineno, fmt.Sprintf(format, args...))
}

// blanks are the ASCII white space strings.Fields splits at, but '\n';
// specials the bytes the tokenizer takes a closer look at.
var blanks, specials = func() (blanks, specials [256]bool) {
	for _, c := range "\t\v\f\r " {
		blanks[c] = true
	}
	for c := range specials {
		specials[c] = blanks[c] || c >= utf8.RuneSelf || strings.IndexByte("\";()\\\n", byte(c)) >= 0
	}
	return
}()

// logicalLine reads the next logical line into p.fields in one pass over
// its physical lines: comments are stripped, parentheses join lines and
// split fields, and white space — Unicode's too, as strings.Fields has
// it — splits fields. A ';', '(' or ')' inside a quoted string is text,
// and a backslash there escapes a following '"' or '\\'. A line with no
// fields is skipped. startsBlank reports whether the logical line starts
// with a blank or a '(', which leave the owner out. At the end of the
// text it returns the read error, or io.EOF.
func (p *fileParser) logicalLine() (startsBlank bool, err error) {
	text, i := p.text, p.pos
	fields := p.fields[:0]
	depth, quoted := 0, false
	p.quote = -1
	for i < len(text) {
		p.lineno++
		if c := text[i]; depth == 0 {
			startsBlank, quoted = c == ' ' || c == '\t' || c == '(', false
		}
		lineStart, start := i, -1 // start: the open field's first byte, or -1
	line:
		for ; i < len(text); i++ {
			at, c, sep := i, text[i], false // sep: c ends the open field
			if specials[c] {
				switch {
				case c == '\n':
					break line
				case blanks[c]:
					sep = true
				case c >= utf8.RuneSelf:
					r, size := utf8.DecodeRuneInString(text[i:])
					sep, i = unicode.IsSpace(r), i+size-1
				case quoted:
					if c == '"' {
						quoted = false
					} else if c == '\\' && i+1 < len(text) && (text[i+1] == '"' || text[i+1] == '\\') {
						i++
					}
				case c == '"':
					if quoted = true; p.quote < 0 {
						p.quote = len(fields)
					}
				case c == ';':
					sep, i = true, lineEnd(text, i)-1
				case c == '(':
					depth, sep = depth+1, true
				case c == ')':
					if depth, sep = depth-1, true; depth < 0 {
						if lineEnd(text, i)-lineStart >= maxLine {
							return false, bufio.ErrTooLong
						}
						return false, p.errf("unbalanced ')'")
					}
				}
			}
			if !sep {
				if start < 0 {
					start = at
				}
			} else if at-lineStart >= maxLine { // no fields piled up past the limit
				return false, bufio.ErrTooLong
			} else if start >= 0 {
				fields, start = append(fields, text[start:at]), -1
			}
		}
		if i-lineStart >= maxLine {
			return false, bufio.ErrTooLong
		}
		if start >= 0 {
			fields = append(fields, text[start:i])
		}
		i = min(i+1, len(text)) // past the '\n'
		if depth == 0 && len(fields) > 0 {
			p.pos, p.fields = i, fields
			return startsBlank, nil
		}
	}
	switch {
	case p.readErr != nil:
		return false, p.readErr
	case depth > 0:
		return false, p.errf("unterminated parentheses at EOF")
	}
	return false, io.EOF
}

// lineEnd returns the index of the '\n' that ends the physical line
// holding text[i], or len(text).
func lineEnd(text string, i int) int {
	if j := strings.IndexByte(text[i:], '\n'); j >= 0 {
		return i + j
	}
	return len(text)
}

// ownerRuns counts the lines that name an owner other than the line
// before that named one: the names of a zone whose owners each hold one
// run of records, the size its node map is made with.
func ownerRuns(text string) int {
	n, prev := 0, ""
	for i := 0; i < len(text); i = lineEnd(text, i) + 1 {
		end := i // a line starting with a blank or a special has no owner
		for end < len(text) && !specials[text[end]] {
			end++
		}
		if owner := text[i:end]; owner != "" && owner[0] != '$' && owner != prev {
			n, prev = n+1, owner
		}
	}
	return n
}

// upperASCII returns tok in upper case as strings.ToUpper has it, in a
// reused buffer, when that is ASCII — as every type, class and directive
// name is — and nil otherwise.
func (p *fileParser) upperASCII(tok string) []byte {
	b := p.upper[:0]
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c >= utf8.RuneSelf { // 'ı' and 'ſ' upper-case to 'I' and 'S'
			r, size := utf8.DecodeRuneInString(tok[i:])
			if r = unicode.ToUpper(r); r >= utf8.RuneSelf {
				return nil
			}
			c, i = byte(r), i+size-1
		} else if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	p.upper = b
	return b
}

func (p *fileParser) run() (*Zone, error) {
	for {
		startsBlank, err := p.logicalLine()
		if err == io.EOF {
			break
		}
		if err == nil && p.fields[0][0] == '$' {
			err = p.directive(p.fields)
		} else if err == nil {
			err = p.record(p.fields, startsBlank)
		}
		if err != nil {
			return nil, err
		}
	}
	if p.zone == nil {
		p.zone = New(p.origin)
	}
	return p.zone, nil
}

func (p *fileParser) directive(fields []string) error {
	switch string(p.upperASCII(fields[0])) {
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
		p.origin = p.absName(fields[1])
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return p.errf("$TTL wants one argument")
		}
		ttl, err := parseTTL(fields[1])
		if err != nil {
			return p.errf("$TTL: %v", err)
		}
		p.ttl, p.haveTTL = ttl, true
		return nil
	default:
		return p.errf("unsupported directive %s", fields[0])
	}
}

func (p *fileParser) record(fields []string, startsBlank bool) error {
	if p.zone == nil {
		// Made once, at its final size on a zone of one run per owner.
		p.zone = &Zone{origin: p.origin, nodes: make(map[string]node, ownerRuns(p.text))}
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

	ttl, haveTTL := p.ttl, p.haveTTL
	// TTL and class (IN, the only one) may appear in either order before
	// the type. Every TTL starts with a digit, so no other token pays for
	// a failed parseTTL.
	var upper []byte
	for ; len(fields) > 0; fields = fields[1:] {
		if f := fields[0]; '0' <= f[0] && f[0] <= '9' {
			if v, err := parseTTL(f); err == nil {
				ttl, haveTTL = v, true
				continue
			}
		}
		if upper = p.upperASCII(fields[0]); string(upper) != "IN" {
			break
		}
	}
	if len(fields) == 0 {
		return p.errf("record for %s has no type", owner)
	}
	t := dnswire.ParseType(string(upper))
	if t == dnswire.TypeNone {
		return p.errf("unsupported record type %q", fields[0])
	}
	if !haveTTL {
		return p.errf("record for %s has no TTL and none inherited", owner)
	}
	// A quote opens a quoted string (see logicalLine), so a name holding
	// one would change how Marshal's output of the record splits, and not
	// survive it: only TXT data may hold one. A quote in a field before
	// the data has failed the record already, unless it is in the owner.
	if strings.IndexByte(owner, '"') >= 0 {
		return p.errf("quote in owner name %q", owner)
	}
	if q := p.quote - (len(p.fields) - len(fields) + 1); t != dnswire.TypeTXT && q >= 0 {
		return p.errf("quote in %s data %q", t, fields[1+q])
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
	p.zone.addLocked(dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: ttl, Data: data})
	return nil
}

// absName resolves a possibly-relative master-file name against the
// origin into its canonical form. The name is built in a reused buffer
// and copied out, so it never points into the text; a repeat of the
// owner before costs no copy at all.
func (p *fileParser) absName(s string) string {
	if s == "@" {
		return p.origin
	}
	b := append(p.name[:0], s...)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	if s[len(s)-1] != '.' {
		b = append(b, '.')
		if p.origin != "." {
			b = append(b, p.origin...)
		}
	}
	p.name = b
	if string(b) == p.lastOwner {
		return p.lastOwner
	}
	return string(b)
}

func (p *fileParser) rdata(t dnswire.Type, fields []string) (dnswire.RData, error) {
	n := 0 // the data fields t's syntax takes: 0 for one or more (TXT), or no syntax
	switch t {
	case dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypePTR:
		n = 1
	case dnswire.TypeMX:
		n = 2
	case dnswire.TypeDS:
		n = 4
	case dnswire.TypeSOA:
		n = 7
	case dnswire.TypeTXT:
		if len(fields) == 0 {
			return nil, p.errf("TXT record wants at least one string")
		}
	}
	if n > 0 && len(fields) != n {
		return nil, p.errf("%s record wants %d fields, got %d", t, n, len(fields))
	}
	switch t {
	case dnswire.TypeA, dnswire.TypeAAAA:
		addr, err := netip.ParseAddr(fields[0])
		if err == nil && addr.Is6() != (t == dnswire.TypeAAAA) {
			err = fmt.Errorf("address %s has wrong family", fields[0])
		}
		if err != nil {
			return nil, p.errf("%s: %v", t, err)
		}
		if t == dnswire.TypeA {
			return dnswire.A{Addr: addr}, nil
		}
		return dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		return dnswire.NS{Host: p.absName(fields[0])}, nil
	case dnswire.TypeCNAME:
		return dnswire.CNAME{Target: p.absName(fields[0])}, nil
	case dnswire.TypePTR:
		return dnswire.PTR{Target: p.absName(fields[0])}, nil
	case dnswire.TypeMX:
		pref, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, p.errf("MX preference: %v", err)
		}
		return dnswire.MX{Pref: uint16(pref), Host: p.absName(fields[1])}, nil
	case dnswire.TypeTXT:
		strs, err := joinQuoted(fields)
		if err != nil {
			return nil, p.errf("TXT: %v", err)
		}
		return dnswire.TXT{Strings: strs}, nil
	case dnswire.TypeSOA:
		var nums [5]uint32
		for i := range nums {
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
		var nums [3]uint64
		for i, what := range [3]string{"key tag", "algorithm", "digest type"} {
			v, err := strconv.ParseUint(fields[i], 10, [3]int{16, 8, 8}[i])
			if err != nil {
				return nil, p.errf("DS %s: %v", what, err)
			}
			nums[i] = v
		}
		digest, err := hex.DecodeString(strings.ToLower(fields[3]))
		if err != nil {
			return nil, p.errf("DS digest: %v", err)
		}
		return dnswire.DS{
			KeyTag: uint16(nums[0]), Algorithm: uint8(nums[1]),
			DigestType: uint8(nums[2]), Digest: digest,
		}, nil
	}
	return nil, p.errf("no master-file syntax for type %s", t)
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
		if '0' <= c && c <= '9' {
			if num = num*10 + uint64(c-'0'); num > maxTTL {
				return 0, fmt.Errorf("TTL %q too large", s)
			}
			haveNum = true
			continue
		}
		unit := strings.IndexByte("smhdwSMHDW", c)
		if unit < 0 || !haveNum {
			return 0, fmt.Errorf("bad TTL %q", s)
		}
		if total += num * [5]uint64{1, 60, 3600, 86400, 604800}[unit%5]; total > maxTTL {
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

// joinQuoted reassembles whitespace-split master-file fields into TXT
// character strings: quoted spans (possibly containing spaces) become one
// string each, bare tokens one string each. Each is a copy: none points
// into the text.
func joinQuoted(fields []string) ([]string, error) {
	var out []string
	for i := 0; i < len(fields); i++ {
		s := fields[i]
		if strings.HasPrefix(s, `"`) {
			// Take fields up to the closing quote, joined by one space.
			j := i
			for !strings.HasSuffix(fields[j], `"`) || j == i && len(s) == 1 {
				if j++; j == len(fields) {
					return nil, fmt.Errorf("unterminated quoted string")
				}
			}
			s, i = strings.TrimSuffix(strings.Join(fields[i:j+1], " ")[1:], `"`), j
		}
		out = append(out, strings.Clone(s))
	}
	return out, nil
}
