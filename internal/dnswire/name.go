// Package dnswire implements the DNS wire format (RFC 1034/1035): message
// packing and unpacking with name compression, and typed resource record
// data for the record types used by the rest of the system.
//
// Domain names are passed around as strings in canonical form: lower case,
// fully qualified, with a trailing dot. The root is ".". CanonicalName
// converts arbitrary user input into this form.
package dnswire

import (
	"errors"
	"strings"
)

// Errors returned by name handling and message parsing.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label in name")
	ErrBadName      = errors.New("dnswire: malformed name")
)

// MaxNameLen is the maximum length of a domain name on the wire, per
// RFC 1035 §2.3.4.
const MaxNameLen = 255

// MaxLabelLen is the maximum length of a single label.
const MaxLabelLen = 63

// CanonicalName converts s into canonical form: lower case with a trailing
// dot. An empty string and "." both canonicalize to the root ".".
func CanonicalName(s string) string {
	if s == "" || s == "." {
		return "."
	}
	s = toLowerASCII(s)
	if s[len(s)-1] != '.' {
		s += "."
	}
	return s
}

// toLowerASCII lowercases A-Z only. Names are byte strings (RFC 4343):
// strings.ToLower would rewrite non-UTF-8 label bytes to U+FFFD and
// silently change the name.
func toLowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			b := []byte(s)
			for ; i < len(b); i++ {
				if 'A' <= b[i] && b[i] <= 'Z' {
					b[i] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// SplitLabels returns the labels of a canonical name, most-specific first.
// The root name yields an empty slice.
func SplitLabels(name string) []string {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(name, "."), ".")
}

// CountLabels returns the number of labels in name. The root has zero.
// A canonical name carries one trailing dot per label, so this is a dot
// count — no splitting, no allocation (the referral-descent hot path
// calls this per zone comparison).
func CountLabels(name string) int {
	name = CanonicalName(name)
	if name == "." {
		return 0
	}
	n := 0
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			n++
		}
	}
	return n
}

// ValidName reports whether name is a syntactically valid canonical domain
// name: each label 1..63 octets and total wire length within 255 octets.
func ValidName(name string) error {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	wire := 1 // root terminator
	start := 0
	for i := 0; i < len(name); i++ {
		if name[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 {
			return ErrEmptyLabel
		}
		if l > MaxLabelLen {
			return ErrLabelTooLong
		}
		wire += 1 + l
		start = i + 1
	}
	if wire > MaxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// Parent returns the name with its leftmost label removed. The parent of
// the root is the root.
func Parent(name string) string {
	name = CanonicalName(name)
	if name == "." {
		return "."
	}
	i := strings.IndexByte(name, '.')
	if i+1 >= len(name) {
		return "."
	}
	return name[i+1:]
}

// IsSubdomain reports whether child is equal to or below parent.
func IsSubdomain(child, parent string) bool {
	child = CanonicalName(child)
	parent = CanonicalName(parent)
	if parent == "." {
		return true
	}
	// child is parent, or ends in "."+parent: the label boundary and the
	// suffix are compared in place rather than through a concatenation.
	n := len(child) - len(parent)
	if n == 0 {
		return child == parent
	}
	return n > 0 && child[n-1] == '.' && child[n:] == parent
}

// Join prepends label to name, producing a canonical child name.
func Join(label, name string) string {
	name = CanonicalName(name)
	if name == "." {
		return CanonicalName(label + ".")
	}
	return CanonicalName(label + "." + name)
}
