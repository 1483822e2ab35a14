package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// builder accumulates wire-format bytes and tracks name offsets for
// compression (RFC 1035 §4.1.4). Builders are pooled: the byte buffer and
// the offset table survive across messages, so a steady-state Pack
// allocates only the returned slice.
type builder struct {
	buf      []byte
	offsets  compTable
	compress bool
}

var builderPool = sync.Pool{New: func() any {
	return &builder{
		buf:     make([]byte, 0, 512),
		offsets: compTable{slots: make([]compEntry, 32)},
	}
}}

func newBuilder(compress bool) *builder {
	b := builderPool.Get().(*builder)
	b.buf = b.buf[:0]
	b.offsets.reset()
	b.compress = compress
	return b
}

// release returns the builder to the pool. The caller must not touch
// b.buf afterwards.
func (b *builder) release() { builderPool.Put(b) }

func (b *builder) byte(v uint8)    { b.buf = append(b.buf, v) }
func (b *builder) bytes(v []byte)  { b.buf = append(b.buf, v...) }
func (b *builder) uint16(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }
func (b *builder) uint32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }

// compTable maps each canonical name suffix the current message has
// written in full to the offset of its latest full encoding. It is an
// open-addressed, linearly probed hash table whose slots carry the
// generation (message) that filled them: reset bumps the generation
// instead of clearing, and a lookup is O(1) expected whether the message
// holds two names or a 135-name referral. Suffixes of a canonical name are
// substrings of it, so the keys are shared slices — no per-label strings
// are built. A pooled table pins at most one name per slot until the slot
// is reused.
type compTable struct {
	slots []compEntry // power-of-two length, at most half live
	gen   uint32
	live  int
}

type compEntry struct {
	suffix string
	gen    uint32
	off    uint16
}

func (t *compTable) reset() {
	t.live = 0
	if t.gen++; t.gen == 0 { // wrapped: stale stamps could match again
		clear(t.slots)
		t.gen = 1
	}
}

// slot returns suffix's entry: live (e.gen == t.gen) when the message
// already registered the suffix, otherwise the free slot where set puts it.
func (t *compTable) slot(suffix string) *compEntry {
	mask := uint64(len(t.slots) - 1)
	for i := hashBytes(suffix) & mask; ; i = (i + 1) & mask {
		if e := &t.slots[i]; e.gen != t.gen || e.suffix == suffix {
			return e
		}
	}
}

// set registers suffix at off through e, the entry slot returned for it.
func (t *compTable) set(e *compEntry, suffix string, off int) {
	fresh := e.gen != t.gen
	*e = compEntry{suffix: suffix, gen: t.gen, off: uint16(off)}
	if !fresh {
		return
	}
	if t.live++; 2*t.live > len(t.slots) {
		old := t.slots
		t.slots = make([]compEntry, 2*len(old))
		for _, o := range old {
			if o.gen == t.gen {
				*t.slot(o.suffix) = o
			}
		}
	}
}

// name appends a (possibly compressed) encoding of the canonical form of n.
// Compression pointers can only target offsets < 0x4000; beyond that the
// name is written in full and not registered. A name written in full
// into a compressing builder (allowCompress=false: the NSEC next name)
// re-registers its suffixes, so later names point at the latest full
// encoding. Without compression nothing ever reads the table, so nothing
// is registered.
func (b *builder) name(n string, allowCompress bool) {
	n = CanonicalName(n)
	if n != "." {
		for start := 0; start < len(n); {
			suffix := n[start:]
			if b.compress {
				e := b.offsets.slot(suffix)
				if allowCompress && e.gen == b.offsets.gen {
					b.uint16(0xC000 | e.off)
					return
				}
				if len(b.buf) < 0x4000 {
					b.offsets.set(e, suffix, len(b.buf))
				}
			}
			end := strings.IndexByte(suffix, '.')
			label := suffix[:end]
			b.byte(uint8(len(label)))
			b.buf = append(b.buf, label...)
			start += end + 1
		}
	}
	b.byte(0)
}

// Pack encodes the message into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.pack(nil, true)
}

// AppendPack appends the compressed wire encoding of m to dst and returns
// the extended slice, allocating only when dst lacks capacity. Senders
// whose transport copies the payload (netsim does; UDP writes do) can
// recycle one buffer across every send.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	return m.pack(dst, true)
}

// PackUncompressed encodes the message without name compression; useful for
// testing decoders against both forms.
func (m *Message) PackUncompressed() ([]byte, error) {
	return m.pack(nil, false)
}

// WireLenBound returns the length of m's encoding with every name
// uncompressed (PackUncompressed's length), an upper bound on what Pack
// produces, without encoding anything. Pack runs it first and refuses
// what it refuses, with its error, so a sender that only needs to know
// whether m fits a size limit can skip packing it.
func (m *Message) WireLenBound() (int, error) {
	if len(m.Questions) > 0xffff || len(m.Answers) > 0xffff ||
		len(m.Authorities) > 0xffff || len(m.Additionals) > 0xffff {
		return 0, fmt.Errorf("dnswire: section too large")
	}
	n := 12 // header
	for _, q := range m.Questions {
		l, err := nameLen(q.Name)
		if err != nil {
			return 0, fmt.Errorf("dnswire: question %q: %w", q.Name, err)
		}
		n += l + 4
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			l, err := rrLen(rr)
			if err != nil {
				return 0, err
			}
			n += l
		}
	}
	return n, nil
}

// rrLen validates rr and returns its uncompressed length. The builder
// cannot faithfully encode a name with empty or oversized labels (it
// would emit a premature terminator), so owner and rdata names are
// refused rather than producing corrupt wire. Compression only shortens
// names, so rdata within 64 KiB uncompressed fits packed too.
func rrLen(rr RR) (int, error) {
	if rr.Data == nil {
		return 0, fmt.Errorf("dnswire: record %q has no data", rr.Name)
	}
	owner, err := nameLen(rr.Name)
	if err != nil {
		return 0, fmt.Errorf("dnswire: record %q: %w", rr.Name, err)
	}
	rdlen, err := rr.Data.wireLen()
	if err != nil {
		return 0, fmt.Errorf("dnswire: record %q rdata name: %w", rr.Name, err)
	}
	if rdlen > 0xffff {
		return 0, fmt.Errorf("dnswire: rdata of %q too large (%d)", rr.Name, rdlen)
	}
	return owner + 10 + rdlen, nil
}

func (m *Message) pack(dst []byte, compress bool) ([]byte, error) {
	if _, err := m.WireLenBound(); err != nil {
		return nil, err
	}
	b := newBuilder(compress)
	defer b.release()
	b.uint16(m.ID)
	b.uint16(m.flags())
	b.uint16(uint16(len(m.Questions)))
	b.uint16(uint16(len(m.Answers)))
	b.uint16(uint16(len(m.Authorities)))
	b.uint16(uint16(len(m.Additionals)))

	for _, q := range m.Questions {
		b.name(q.Name, true)
		b.uint16(uint16(q.Type))
		b.uint16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			packRR(b, rr)
		}
	}
	// The builder's buffer is pooled; hand the caller a copy.
	return append(dst, b.buf...), nil
}

// packRR appends rr, which WireLenBound accepted.
func packRR(b *builder, rr RR) {
	b.name(rr.Name, true)
	b.uint16(uint16(rr.Type()))
	b.uint16(uint16(rr.Class))
	b.uint32(rr.TTL)
	lenAt := len(b.buf)
	b.uint16(0) // rdlength placeholder
	rr.Data.encode(b)
	binary.BigEndian.PutUint16(b.buf[lenAt:], uint16(len(b.buf)-lenAt-2))
}

func (m *Message) flags() uint16 {
	var f uint16
	if m.Response {
		f |= 1 << 15
	}
	f |= uint16(m.Opcode&0xf) << 11
	if m.Authoritative {
		f |= 1 << 10
	}
	if m.Truncated {
		f |= 1 << 9
	}
	if m.RecursionDesired {
		f |= 1 << 8
	}
	if m.RecursionAvailable {
		f |= 1 << 7
	}
	if m.AuthenticData {
		f |= 1 << 5
	}
	if m.CheckingDisabled {
		f |= 1 << 4
	}
	f |= uint16(m.RCode & 0xf)
	return f
}
