package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"unsafe"
)

// Parsing errors.
var (
	ErrTruncatedMessage = errors.New("dnswire: message truncated")
	ErrBadPointer       = errors.New("dnswire: bad compression pointer")
	ErrTrailingGarbage  = errors.New("dnswire: trailing bytes after message")
)

type parser struct {
	data []byte
	off  int
	// names, set by UnpackBorrow, receives the owner names that miss the
	// intern table; nil interns them (UnpackInto).
	names *[]byte
}

func (p *parser) need(n int) error {
	if p.off+n > len(p.data) {
		return ErrTruncatedMessage
	}
	return nil
}

func (p *parser) byte() (uint8, error) {
	if err := p.need(1); err != nil {
		return 0, err
	}
	v := p.data[p.off]
	p.off++
	return v, nil
}

func (p *parser) uint16() (uint16, error) {
	if err := p.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(p.data[p.off:])
	p.off += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if err := p.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(p.data[p.off:])
	p.off += 4
	return v, nil
}

func (p *parser) bytes(n int) ([]byte, error) {
	// n can go negative when a decoder computes "rest of rdata" after a
	// compressed name already overran the claimed rdata length.
	if n < 0 {
		return nil, ErrTruncatedMessage
	}
	if err := p.need(n); err != nil {
		return nil, err
	}
	v := p.data[p.off : p.off+n]
	p.off += n
	return v, nil
}

// name reads a possibly-compressed domain name starting at the current
// offset, following compression pointers. Pointer chains are bounded to
// prevent loops.
func (p *parser) name() (string, error) {
	n, next, err := readName(p.data, p.off)
	if err != nil {
		return "", err
	}
	p.off = next
	return n, nil
}

// owner reads a question or record owner name. Under UnpackBorrow a name
// the intern table does not hold is decoded straight into the message's
// name storage and returned aliasing it; it is never entered into the
// table, whose later hits would otherwise hand out overwritten bytes.
func (p *parser) owner() (string, error) {
	if p.names == nil {
		return p.name()
	}
	start := len(*p.names)
	all, next, err := appendName(*p.names, p.data, p.off)
	if err != nil {
		return "", err
	}
	p.off = next
	name := all[start:]
	if len(name) == 0 {
		return ".", nil
	}
	key := unsafe.String(&name[0], len(name))
	if s, ok := nameIntern.lookup(hashBytes(name), key); ok {
		*p.names = all[:start]
		return s, nil
	}
	*p.names = all
	return key, nil
}

// readName decodes a name at off in data, returning the canonical name and
// the offset just past the name's in-place encoding. The presentation form
// is assembled (and lowercased) in a stack buffer, so decoding costs at
// most one string allocation per name regardless of label count (none when
// the name interns).
func readName(data []byte, off int) (string, int, error) {
	var buf [MaxNameLen]byte // wire length caps the presentation length too
	name, next, err := appendName(buf[:0], data, off)
	if err != nil {
		return "", 0, err
	}
	if len(name) == 0 {
		return ".", next, nil
	}
	// The lookup key aliases the stack buffer; a miss copies it.
	key := unsafe.String(&name[0], len(name))
	return nameIntern.intern(hashBytes(name), key, func() (string, string) {
		s := string(name)
		return s, s
	}), next, nil
}

// appendName appends the lowercased presentation form of the name at off
// in data to dst, without the root's lone dot (the root appends nothing),
// and returns the offset just past the name's in-place encoding.
func appendName(dst, data []byte, off int) ([]byte, int, error) {
	ptrBudget := 64 // far more than any legitimate message needs
	next := -1      // offset after the first pointer, i.e. where parsing resumes
	wireLen := 0
	for {
		if off >= len(data) {
			return dst, 0, ErrTruncatedMessage
		}
		l := int(data[off])
		switch {
		case l == 0:
			if next < 0 {
				next = off + 1
			}
			return dst, next, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(data) {
				return dst, 0, ErrTruncatedMessage
			}
			ptr := int(l&0x3F)<<8 | int(data[off+1])
			if ptr >= off {
				// Forward (or self) pointers cannot occur in well-formed
				// messages and could loop.
				return dst, 0, ErrBadPointer
			}
			if next < 0 {
				next = off + 2
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return dst, 0, ErrBadPointer
			}
			off = ptr
		case l&0xC0 != 0:
			return dst, 0, fmt.Errorf("%w: reserved label type 0x%x", ErrBadName, l&0xC0)
		default:
			if off+1+l > len(data) {
				return dst, 0, ErrTruncatedMessage
			}
			wireLen += 1 + l
			if wireLen+1 > MaxNameLen {
				return dst, 0, ErrNameTooLong
			}
			for _, c := range data[off+1 : off+1+l] {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst = append(dst, c)
			}
			dst = append(dst, '.')
			off += 1 + l
		}
	}
}

// Unpack parses a complete DNS message from wire format.
func Unpack(data []byte) (*Message, error) {
	m := &Message{}
	if err := UnpackInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// UnpackInto parses a complete DNS message from wire format into m,
// reusing m's section slices (their backing arrays, not their contents).
// Steady-state decoding through a scratch or pooled Message is therefore
// allocation-free, except for names the intern table does not hold. On
// error m holds partially decoded data and must not be used.
func UnpackInto(m *Message, data []byte) error {
	return unpack(m, &parser{data: data})
}

// UnpackBorrow is UnpackInto for a caller that keeps nothing of the
// message: a question or owner name the intern table does not hold is
// copied into storage m owns, not allocated, and is valid only until the
// next decode into m. A string taken from m that must outlive that
// decode has to be cloned. Names in record data are interned as by
// UnpackInto. A borrowed decode adds nothing to the intern table.
func UnpackBorrow(m *Message, data []byte) error {
	return unpack(m, &parser{data: data, names: &m.names})
}

func unpack(m *Message, p *parser) error {
	data := p.data
	*m = Message{
		Questions:   m.Questions[:0],
		Answers:     m.Answers[:0],
		Authorities: m.Authorities[:0],
		Additionals: m.Additionals[:0],
		names:       m.names[:0],
	}
	id, err := p.uint16()
	if err != nil {
		return err
	}
	flags, err := p.uint16()
	if err != nil {
		return err
	}
	m.ID = id
	m.Response = flags&(1<<15) != 0
	m.Opcode = Opcode(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.AuthenticData = flags&(1<<5) != 0
	m.CheckingDisabled = flags&(1<<4) != 0
	m.RCode = RCode(flags & 0xf)

	var counts [4]uint16
	for i := range counts {
		if counts[i], err = p.uint16(); err != nil {
			return err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		q, err := p.question()
		if err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	for s := 0; s < 3; s++ {
		sec := &m.Answers
		switch s {
		case 1:
			sec = &m.Authorities
		case 2:
			sec = &m.Additionals
		}
		if c := int(counts[s+1]); c > 0 && cap(*sec) < c {
			*sec = make([]RR, 0, c)
		}
		for i := 0; i < int(counts[s+1]); i++ {
			rr, err := p.rr()
			if err != nil {
				return fmt.Errorf("%s %d: %w", sectionNames[s], i, err)
			}
			*sec = append(*sec, rr)
		}
	}
	if p.off != len(data) {
		return ErrTrailingGarbage
	}
	return nil
}

var sectionNames = [3]string{"answer", "authority", "additional"}

func (p *parser) question() (Question, error) {
	var q Question
	name, err := p.owner()
	if err != nil {
		return q, err
	}
	t, err := p.uint16()
	if err != nil {
		return q, err
	}
	c, err := p.uint16()
	if err != nil {
		return q, err
	}
	q.Name, q.Type, q.Class = name, Type(t), Class(c)
	return q, nil
}

func (p *parser) rr() (RR, error) {
	var rr RR
	name, err := p.owner()
	if err != nil {
		return rr, err
	}
	t16, err := p.uint16()
	if err != nil {
		return rr, err
	}
	c, err := p.uint16()
	if err != nil {
		return rr, err
	}
	ttl, err := p.uint32()
	if err != nil {
		return rr, err
	}
	rdlen, err := p.uint16()
	if err != nil {
		return rr, err
	}
	if err := p.need(int(rdlen)); err != nil {
		return rr, err
	}
	rdataEnd := p.off + int(rdlen)
	data, err := p.rdata(Type(t16), rdataEnd)
	if err != nil {
		return rr, err
	}
	if p.off != rdataEnd {
		return rr, fmt.Errorf("dnswire: rdata length mismatch for %s", Type(t16))
	}
	rr.Name, rr.Class, rr.TTL, rr.Data = name, Class(c), ttl, data
	return rr, nil
}

func (p *parser) rdata(t Type, end int) (RData, error) {
	switch t {
	case TypeA:
		b, err := p.bytes(4)
		if err != nil {
			return nil, err
		}
		v := A{Addr: netip.AddrFrom4([4]byte(b))}
		return internRData(&aIntern, hashAddr(v.Addr), v), nil
	case TypeAAAA:
		b, err := p.bytes(16)
		if err != nil {
			return nil, err
		}
		v := AAAA{Addr: netip.AddrFrom16([16]byte(b))}
		return internRData(&aaaaIntern, hashAddr(v.Addr), v), nil
	case TypeNS:
		h, err := p.name()
		if err != nil {
			return nil, err
		}
		return internRData(&nsIntern, hashBytes(h), NS{Host: h}), nil
	case TypeCNAME:
		h, err := p.name()
		if err != nil {
			return nil, err
		}
		return internRData(&cnameIntern, hashBytes(h), CNAME{Target: h}), nil
	case TypePTR:
		h, err := p.name()
		return PTR{Target: h}, err
	case TypeMX:
		pref, err := p.uint16()
		if err != nil {
			return nil, err
		}
		h, err := p.name()
		return MX{Pref: pref, Host: h}, err
	case TypeTXT:
		var strs []string
		for p.off < end {
			l, err := p.byte()
			if err != nil {
				return nil, err
			}
			s, err := p.bytes(int(l))
			if err != nil {
				return nil, err
			}
			strs = append(strs, string(s))
		}
		return TXT{Strings: strs}, nil
	case TypeSOA:
		var s SOA
		var err error
		if s.MName, err = p.name(); err != nil {
			return nil, err
		}
		if s.RName, err = p.name(); err != nil {
			return nil, err
		}
		vals := [5]*uint32{&s.Serial, &s.Refresh, &s.Retry, &s.Expire, &s.Minimum}
		for _, v := range vals {
			if *v, err = p.uint32(); err != nil {
				return nil, err
			}
		}
		return internRData(&soaIntern, hashBytes(s.MName)^uint64(s.Serial), s), nil
	case TypeDS:
		var d DS
		var err error
		if d.KeyTag, err = p.uint16(); err != nil {
			return nil, err
		}
		if d.Algorithm, err = p.byte(); err != nil {
			return nil, err
		}
		if d.DigestType, err = p.byte(); err != nil {
			return nil, err
		}
		rest, err := p.bytes(end - p.off)
		if err != nil {
			return nil, err
		}
		d.Digest = append([]byte(nil), rest...)
		return d, nil
	case TypeOPT:
		rest, err := p.bytes(end - p.off)
		if err != nil {
			return nil, err
		}
		return OPT{Options: append([]byte(nil), rest...)}, nil
	case TypeRRSIG:
		return p.decodeRRSIG(end)
	case TypeDNSKEY:
		return p.decodeDNSKEY(end)
	case TypeNSEC:
		return p.decodeNSEC(end)
	default:
		rest, err := p.bytes(end - p.off)
		if err != nil {
			return nil, err
		}
		return Unknown{Type: t, Data: append([]byte(nil), rest...)}, nil
	}
}
