package zone

import (
	"sort"
	"strings"
	"testing"
)

// FuzzMasterFile asserts that the master-file parser never panics and that
// Marshal's claim holds on everything the parser accepts: the output
// re-parses into a zone with the same origin, the same owner names, and
// the same number of records. (Record contents are not compared byte for
// byte — TXT strings are re-escaped on output — but names and shape must
// survive.)
func FuzzMasterFile(f *testing.F) {
	f.Add(`$ORIGIN example.nl.
$TTL 3600
@ IN SOA ns1.example.nl. host.example.nl. 1 7200 3600 864000 60
@ IN NS ns1
ns1 IN A 192.0.2.1
www 300 IN AAAA 2001:db8::1
alias IN CNAME www
@ IN MX 10 mail.example.nl.
@ IN TXT "v=spf1 -all" "second string"
sub 3600 IN NS ns1.sub
ns1.sub IN A 192.0.2.53
`)
	f.Add("$ORIGIN test.\n@ 60 IN SOA ns. h. 1 2 3 4 5\n@ IN NS ns.\n")
	f.Add("www IN A 192.0.2.1\n")
	f.Add("$TTL abc\n")
	f.Add("@ IN TXT \"unterminated\n")
	f.Add("a ( b\n c ) IN A 192.0.2.1\n")
	f.Add("t 60 IN TXT \"v=spf1; -all\" \"c(d\" \"e)f\" \"g\\\"h;\" ; comment\n")
	f.Add("$ORIGIN x\"y.\nw 60 IN TXT \"a;b\"\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseString(text, "example.nl.")
		if err != nil {
			return
		}
		out := z.MarshalString()
		z2, err := ParseString(out, "")
		if err != nil {
			t.Fatalf("marshaled zone does not re-parse: %v\n%s", err, out)
		}
		if z2.Origin() != z.Origin() {
			t.Fatalf("origin changed: %q -> %q", z.Origin(), z2.Origin())
		}
		if z2.Len() != z.Len() {
			t.Fatalf("record count changed: %d -> %d\n%s", z.Len(), z2.Len(), out)
		}
		n1, n2 := z.Names(), z2.Names()
		sort.Strings(n1)
		sort.Strings(n2)
		if strings.Join(n1, "\n") != strings.Join(n2, "\n") {
			t.Fatalf("owner names changed:\nbefore: %v\nafter:  %v\n%s", n1, n2, out)
		}
	})
}

// FuzzParseMatchesReference holds Parse to the reference parser in
// reference_test.go, the straightforward one it replaced: on every input
// both accept or both reject with the same error text (line number
// included), and accepted zones marshal to the same bytes and hold the
// same number of records.
func FuzzParseMatchesReference(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN x.\n$TTL 60\nwww\u00a0IN\u2003A 10.0.0.1\n\u00a0\n\u3000 IN A 10.0.0.2\n\u00a0\tIN A 10.0.0.3\n")
	f.Add("$ORIGIN x.\r\n$TTL 60\r\n@ IN A 10.0.0.1\r\n\r\n")
	f.Add("$ORIGIN x.\n$TTL 120\nhost 60 IN A 10.0.0.1\n\tIN A 10.0.0.2\n  300 AAAA ::1\n")
	f.Add("$ORIGIN .\n$TTL 1h\n. IN SOA a. b. 1 2 3 4 5\nnl. 172800 IN NS ns1.nl.\nns1.nl. IN A 192.0.2.1\n")
	f.Add("$origin X.\n$ttl 1D\nWWW 60 in aaaa ::1\nMail Mx 10 MX\nw2 In CnAmE WWW\n")
	f.Add("$ORIGIN x.\n@ 60 IN SOA a b ( 1 2\n 3 ; c\n 4 5 )\n@ 60 IN TXT \"a;b\" ( \"c)\"\n \"d(\" )\n")
	f.Add("$ORIGIN x.\n@ 2147483647 IN A 10.0.0.1\n@ 2147483648 IN A 10.0.0.2\n")
	f.Add("$TTL 18446744073709551617s\n")
	f.Add("$ORIGIN x.\n@ 60 IN A 10.0.0.1 )\n")
	f.Add("$ORIGIN x.\n@ 60 IN TXT \"a\\\"; b\" \"c\\\\\" ; d\n")
	f.Add("$ORIGIN x.\n@ 60 IN NS a\"b\n")
	f.Add("$ORIGIN x.\n@\v60\fIN\rA 10.0.0.1\n")
	f.Add("$ORIGIN x.\n@ 0 IN A 10.0.0.1\nw 0060 IN A 10.0.0.2\n")
	f.Add("$ORIGIN x.\nwww.y. 60 IN A 10.0.0.1\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseString(text, "example.nl.")
		ref, refErr := refParseString(text, "example.nl.")
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Parse: %v\nreference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got, want := z.MarshalString(), ref.MarshalString(); got != want {
			t.Fatalf("Parse marshals to\n%s\nthe reference to\n%s", got, want)
		}
		if z.Len() != ref.Len() {
			t.Fatalf("Parse holds %d records, the reference %d", z.Len(), ref.Len())
		}
	})
}
