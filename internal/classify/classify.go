// Package classify implements the paper's answer taxonomy (§3.4): each
// answer a vantage point receives is labeled by where it came from and
// where it was expected to come from.
//
//	AA — expected and correctly from the authoritative
//	CC — expected and correct from a recursive cache (cache hit)
//	AC — from the authoritative but expected from cache (a cache miss)
//	CA — from a cache but expected from the authoritative (extended cache)
//
// The observed source is inferred from the serial encoded in the answer
// (only the current zone round's serial can come from the authoritative);
// the expectation is tracked from the previous answer's remaining TTL.
package classify

import (
	"time"

	"repro/internal/vantage"
)

// Category is the answer class.
type Category int

// Answer categories. Warmup is the paper's AAi: the first valid answer of
// a vantage point, necessarily from the authoritative.
const (
	Unclassified Category = iota
	Warmup
	AA
	CC
	AC
	CA
)

func (c Category) String() string {
	switch c {
	case Warmup:
		return "Warmup"
	case AA:
		return "AA"
	case CC:
		return "CC"
	case AC:
		return "AC"
	case CA:
		return "CA"
	}
	return "Unclassified"
}

// ttlAlteredTolerance is the paper's 10% threshold for reporting an
// altered TTL.
const ttlAlteredTolerance = 0.10

// Outcome is the classification of one answer.
type Outcome struct {
	Category Category
	// TTLAltered reports a returned TTL differing from the zone TTL by
	// more than 10% on an authoritative-sourced answer.
	TTLAltered bool
	// SerialDecreased reports a serial lower than a previously seen one —
	// evidence of cache fragmentation (CCdec/CAdec in Table 2).
	SerialDecreased bool
}

// Tracker classifies the answer stream of a single vantage point. Answers
// must be fed in send-time order.
type Tracker struct {
	seen       bool
	warm       bool
	lastExpiry int64 // Unix nanoseconds, as Answer.Sent
	maxSerial  uint16
}

// NewTracker returns a fresh per-VP tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Classify labels one answer given the serial the zone was serving when
// the answer's query was sent.
func (t *Tracker) Classify(a vantage.Answer, currentSerial uint16) Outcome {
	if !a.Ok() {
		return Outcome{}
	}
	var out Outcome

	// The serial alone separates the observed source: only the current
	// zone round's serial can come from the authoritative, and with
	// probing intervals at or above the rotation interval a cached answer
	// always carries an older serial (§3.2: "The serial number in each
	// reply allows us to distinguish cached results from prior rounds
	// from fresh data in this round"). TTL rewriting therefore cannot
	// disguise a fresh fetch as a cache hit.
	fromAuth := a.Serial == currentSerial

	if a.Serial < t.maxSerial {
		out.SerialDecreased = true
	}
	if a.Serial > t.maxSerial {
		t.maxSerial = a.Serial
	}

	if !t.seen {
		t.seen = true
		t.warm = true
		t.lastExpiry = expiry(a)
		out.Category = Warmup
		out.TTLAltered = ttlAltered(a)
		return out
	}

	expectCache := a.Sent < t.lastExpiry
	switch {
	case expectCache && !fromAuth:
		out.Category = CC
	case expectCache && fromAuth:
		out.Category = AC
		out.TTLAltered = ttlAltered(a)
	case !expectCache && fromAuth:
		out.Category = AA
		out.TTLAltered = ttlAltered(a)
	default:
		out.Category = CA
	}

	// The next expectation follows from what the client was just told.
	t.lastExpiry = expiry(a)
	return out
}

// expiry is when the record a returned runs out of TTL at its client.
func expiry(a vantage.Answer) int64 {
	return a.Sent + int64(time.Duration(a.AnswerTTL)*time.Second)
}

// ttlAltered applies the paper's 10% rule against the zone-configured TTL.
func ttlAltered(a vantage.Answer) bool {
	want := float64(a.EncTTL)
	got := float64(a.AnswerTTL)
	if want == 0 {
		return got != 0
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff/want > ttlAlteredTolerance
}

// Table2 aggregates outcomes into the rows of the paper's Table 2.
type Table2 struct {
	AnswersValid     int
	OneAnswerVPs     int
	Warmup           int
	Duplicates       int
	WarmupTTLZone    int
	WarmupTTLAltered int

	AA           int
	CC           int
	CCdec        int
	AC           int
	ACTTLZone    int
	ACTTLAltered int
	CA           int
	CAdec        int
}

// Add folds one outcome into the table.
func (t *Table2) Add(o Outcome) {
	switch o.Category {
	case Warmup:
		t.Warmup++
		if o.TTLAltered {
			t.WarmupTTLAltered++
		} else {
			t.WarmupTTLZone++
		}
	case AA:
		t.AA++
	case CC:
		t.CC++
		if o.SerialDecreased {
			t.CCdec++
		}
	case AC:
		t.AC++
		if o.TTLAltered {
			t.ACTTLAltered++
		} else {
			t.ACTTLZone++
		}
	case CA:
		t.CA++
		if o.SerialDecreased {
			t.CAdec++
		}
	}
}

// MissRate returns the paper's cache-miss fraction:
// AC / (valid answers - warmup - one-answer VPs).
func (t *Table2) MissRate() float64 {
	denom := t.AA + t.CC + t.AC + t.CA
	if denom == 0 {
		return 0
	}
	return float64(t.AC) / float64(denom)
}
