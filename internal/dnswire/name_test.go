package dnswire

import (
	"strings"
	"testing"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"Example.NL", "example.nl."},
		{"example.nl.", "example.nl."},
		{"WWW.Example.COM.", "www.example.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplitLabels(t *testing.T) {
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(.) = %v, want nil", got)
	}
	got := SplitLabels("www.example.nl")
	want := []string{"www", "example", "nl"}
	if len(got) != len(want) {
		t.Fatalf("SplitLabels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCountLabels(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{".", 0}, {"nl.", 1}, {"example.nl.", 2}, {"a.b.c.d.", 4},
	}
	for _, c := range cases {
		if got := CountLabels(c.in); got != c.want {
			t.Errorf("CountLabels(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestValidName(t *testing.T) {
	if err := ValidName("."); err != nil {
		t.Errorf("root should be valid: %v", err)
	}
	if err := ValidName("example.nl"); err != nil {
		t.Errorf("example.nl should be valid: %v", err)
	}
	long := strings.Repeat("a", 64)
	if err := ValidName(long + ".nl"); err != ErrLabelTooLong {
		t.Errorf("64-char label: got %v, want ErrLabelTooLong", err)
	}
	if err := ValidName("a..nl"); err != ErrEmptyLabel {
		t.Errorf("empty label: got %v, want ErrEmptyLabel", err)
	}
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		sb.WriteString("abcd.")
	}
	if err := ValidName(sb.String()); err != ErrNameTooLong {
		t.Errorf("300-octet name: got %v, want ErrNameTooLong", err)
	}
	// Exactly at the limit: 4 labels of 63 octets = 4*(64)+1 = 257 > 255,
	// so use 3 labels of 63 and one of 59: 3*64 + 60 + 1 = 253.
	ok := strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." +
		strings.Repeat("c", 63) + "." + strings.Repeat("d", 59)
	if err := ValidName(ok); err != nil {
		t.Errorf("253-octet name should be valid: %v", err)
	}
}

func TestParent(t *testing.T) {
	cases := []struct{ in, want string }{
		{".", "."},
		{"nl.", "."},
		{"example.nl.", "nl."},
		{"www.example.nl.", "example.nl."},
	}
	for _, c := range cases {
		if got := Parent(c.in); got != c.want {
			t.Errorf("Parent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.nl.", "example.nl.", true},
		{"example.nl.", "example.nl.", true},
		{"example.nl.", ".", true},
		{"badexample.nl.", "example.nl.", false},
		{"nl.", "example.nl.", false},
		{"Example.NL", "example.nl.", true},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}
