package zone

import (
	"strings"
	"testing"

	"repro/internal/dnswire"
)

func TestMarshalRoundTrip(t *testing.T) {
	z := testZone(t)
	z.MustAdd(dnswire.RR{Name: "note.cachetest.nl.", TTL: 30,
		Data: dnswire.TXT{Strings: []string{"when the dike breaks", "v=1"}}})
	z.MustAdd(dnswire.RR{Name: "mail.cachetest.nl.", TTL: 300,
		Data: dnswire.MX{Pref: 10, Host: "mx.cachetest.nl."}})

	text := z.MarshalString()
	if !strings.HasPrefix(text, "$ORIGIN cachetest.nl.\n") {
		t.Fatalf("missing $ORIGIN:\n%s", text)
	}
	// SOA is the first record line.
	lines := strings.Split(text, "\n")
	if !strings.Contains(lines[1], "SOA") {
		t.Errorf("SOA not first: %q", lines[1])
	}

	z2, err := ParseString(text, "")
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if z2.Origin() != z.Origin() {
		t.Errorf("origin = %q", z2.Origin())
	}
	if z2.Len() != z.Len() {
		t.Fatalf("record count %d != %d\n%s", z2.Len(), z.Len(), text)
	}
	// Spot-check semantic equality across types.
	for _, k := range []struct {
		name string
		t    dnswire.Type
	}{
		{"cachetest.nl.", dnswire.TypeSOA},
		{"cachetest.nl.", dnswire.TypeNS},
		{"1414.cachetest.nl.", dnswire.TypeAAAA},
		{"www.cachetest.nl.", dnswire.TypeCNAME},
		{"note.cachetest.nl.", dnswire.TypeTXT},
		{"mail.cachetest.nl.", dnswire.TypeMX},
		{"sub.cachetest.nl.", dnswire.TypeDS},
		{"*.wild.cachetest.nl.", dnswire.TypeTXT},
	} {
		a, b := z.RRSet(k.name, k.t), z2.RRSet(k.name, k.t)
		if len(a) != len(b) {
			t.Fatalf("%s %s: %d vs %d records", k.name, k.t, len(a), len(b))
		}
		for i := range a {
			if !a[i].Data.Equal(b[i].Data) {
				t.Errorf("%s %s: %v != %v", k.name, k.t, a[i].Data, b[i].Data)
			}
			if a[i].TTL != b[i].TTL {
				t.Errorf("%s %s TTL: %d != %d", k.name, k.t, a[i].TTL, b[i].TTL)
			}
		}
	}
	// The multi-word TXT string survived.
	txt := z2.RRSet("note.cachetest.nl.", dnswire.TypeTXT)
	found := false
	for _, rr := range txt {
		for _, s := range rr.Data.(dnswire.TXT).Strings {
			if s == "when the dike breaks" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("quoted TXT string lost: %v", txt)
	}
}

// TestMarshalRoundTripsQuotedSpecials: ';', '(' and ')' inside a quoted
// TXT string are text, not a comment or a continuation, so Marshal's
// output of such a string parses back to the same data.
func TestMarshalRoundTripsQuotedSpecials(t *testing.T) {
	z := testZone(t)
	want := dnswire.TXT{Strings: []string{"a;b", "c(d", "e)f"}}
	z.MustAdd(dnswire.RR{Name: "odd.cachetest.nl.", TTL: 30, Data: want})
	// Marshal escapes the quote as \"; the ';' after it is still quoted.
	z.MustAdd(dnswire.RR{Name: "esc.cachetest.nl.", TTL: 30,
		Data: dnswire.TXT{Strings: []string{`g"h;i(`}}})
	text := z.MarshalString()
	z2, err := ParseString(text, "")
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if z2.Len() != z.Len() {
		t.Fatalf("record count %d != %d\n%s", z2.Len(), z.Len(), text)
	}
	if got := z2.RRSet("odd.cachetest.nl.", dnswire.TypeTXT); len(got) != 1 || !got[0].Data.Equal(want) {
		t.Errorf("TXT after round trip = %v, want %v", got, want)
	}

	z3, err := ParseString("$ORIGIN example.nl.\nt 60 IN TXT \"v=spf1; -all\" ; a comment\n"+
		"p 60 IN TXT ( \"(x)\"\n \"y;\" )\n", "")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{
		"t.example.nl.": {"v=spf1; -all"},
		"p.example.nl.": {"(x)", "y;"},
	} {
		got := z3.RRSet(name, dnswire.TypeTXT)
		if len(got) != 1 || !got[0].Data.Equal(dnswire.TXT{Strings: want}) {
			t.Errorf("%s TXT = %v, want %q", name, got, want)
		}
	}
}

func TestJoinQuoted(t *testing.T) {
	cases := []struct {
		in   []string
		want []string
		err  bool
	}{
		{[]string{`"hello"`}, []string{"hello"}, false},
		{[]string{`"hello`, `world"`}, []string{"hello world"}, false},
		{[]string{`bare`, `"two words"`}, []string{"bare", "two words"}, false},
		{[]string{`"unterminated`}, nil, true},
		{[]string{`"a"`, `"b c"`, `d`}, []string{"a", "b c", "d"}, false},
	}
	for _, c := range cases {
		got, err := joinQuoted(c.in)
		if (err != nil) != c.err {
			t.Errorf("joinQuoted(%v) err = %v", c.in, err)
			continue
		}
		if c.err {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("joinQuoted(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("joinQuoted(%v)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}
