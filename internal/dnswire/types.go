package dnswire

import "strconv"

// Type is a DNS resource record type.
type Type uint16

// Record types used in this system.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeDS    Type = 43
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeNone:  "NONE",
	TypeA:     "A",
	TypeNS:    "NS",
	TypeCNAME: "CNAME",
	TypeSOA:   "SOA",
	TypePTR:   "PTR",
	TypeMX:    "MX",
	TypeTXT:   "TXT",
	TypeAAAA:  "AAAA",
	TypeOPT:   "OPT",
	TypeDS:    "DS",
	TypeANY:   "ANY",

	TypeRRSIG:  "RRSIG",
	TypeNSEC:   "NSEC",
	TypeDNSKEY: "DNSKEY",
}

// typesByName is typeNames reversed, for ParseType.
var typesByName = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for t, name := range typeNames {
		m[name] = t
	}
	return m
}()

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "TYPE" + strconv.Itoa(int(t))
}

// ParseType maps a textual record type (as in a master file) to its Type.
// Unknown strings return TypeNone.
func ParseType(s string) Type {
	return typesByName[s]
}

// Class is a DNS class. Only IN is used in practice.
type Class uint16

// Classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return "CLASS" + strconv.Itoa(int(c))
}

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return "RCODE" + strconv.Itoa(int(r))
}

// Opcode is a DNS operation code.
type Opcode uint8

// Opcodes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

func (o Opcode) String() string {
	switch o {
	case OpcodeQuery:
		return "QUERY"
	case OpcodeStatus:
		return "STATUS"
	case OpcodeNotify:
		return "NOTIFY"
	case OpcodeUpdate:
		return "UPDATE"
	}
	return "OPCODE" + strconv.Itoa(int(o))
}
