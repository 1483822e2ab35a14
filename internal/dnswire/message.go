package dnswire

import (
	"fmt"
	"strings"
)

// Header is the fixed 12-octet DNS message header, with the flag bits
// unpacked into booleans.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticData      bool
	CheckingDisabled   bool
	RCode              RCode
}

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// RR is a resource record with typed data.
type RR struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type carried by the RR's data.
func (r RR) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.RType()
}

func (r RR) String() string {
	return fmt.Sprintf("%s %d %s %s %s", r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// Message is a complete DNS message.
type Message struct {
	Header
	Questions   []Question
	Answers     []RR
	Authorities []RR
	Additionals []RR

	// names is UnpackBorrow's name storage. The decoders and ResetResponse
	// keep it: a pooled message serves as query and response in turn.
	names []byte
}

// Question1 returns the first question, or a zero Question if none.
func (m *Message) Question1() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// NewQuery builds a standard recursive-desired query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, Opcode: OpcodeQuery, RecursionDesired: true},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
}

// ResetQuery re-initializes m as a standard recursion-desired query for
// (name, type), the in-place twin of NewQuery: section backing arrays are
// kept so a scratch Message builds queries allocation-free.
func (m *Message) ResetQuery(id uint16, name string, t Type) {
	*m = Message{
		Header:      Header{ID: id, Opcode: OpcodeQuery, RecursionDesired: true},
		Questions:   m.Questions[:0],
		Answers:     m.Answers[:0],
		Authorities: m.Authorities[:0],
		Additionals: m.Additionals[:0],
	}
	m.Questions = append(m.Questions, Question{Name: CanonicalName(name), Type: t, Class: ClassIN})
}

// NewResponse builds a response skeleton mirroring the query's ID, question
// and recursion-desired flag.
func NewResponse(query *Message) *Message {
	resp := &Message{
		Header: Header{
			ID:               query.ID,
			Response:         true,
			Opcode:           query.Opcode,
			RecursionDesired: query.RecursionDesired,
		},
	}
	resp.Questions = append(resp.Questions, query.Questions...)
	return resp
}

// ResetResponse re-initializes m as a response skeleton for query (the
// in-place twin of NewResponse): section backing arrays are kept so a
// scratch or pooled Message builds responses allocation-free.
func (m *Message) ResetResponse(query *Message) {
	*m = Message{
		Header: Header{
			ID:               query.ID,
			Response:         true,
			Opcode:           query.Opcode,
			RecursionDesired: query.RecursionDesired,
		},
		Questions:   m.Questions[:0],
		Answers:     m.Answers[:0],
		Authorities: m.Authorities[:0],
		Additionals: m.Additionals[:0],
		names:       m.names,
	}
	m.Questions = append(m.Questions, query.Questions...)
}

func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; id %d opcode %s rcode %s", m.ID, m.Opcode, m.RCode)
	flags := []struct {
		set  bool
		name string
	}{
		{m.Response, "qr"}, {m.Authoritative, "aa"}, {m.Truncated, "tc"},
		{m.RecursionDesired, "rd"}, {m.RecursionAvailable, "ra"},
	}
	sb.WriteString(" flags:")
	for _, f := range flags {
		if f.set {
			sb.WriteByte(' ')
			sb.WriteString(f.name)
		}
	}
	sb.WriteByte('\n')
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, sec := range []struct {
		label string
		rrs   []RR
	}{{"answer", m.Answers}, {"authority", m.Authorities}, {"additional", m.Additionals}} {
		for _, rr := range sec.rrs {
			fmt.Fprintf(&sb, "%s\t; %s\n", rr, sec.label)
		}
	}
	return sb.String()
}
