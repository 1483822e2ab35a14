package classify

import (
	"testing"
	"time"

	"repro/internal/vantage"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// ans builds an answer at minute m with the given serial and TTLs.
func ans(m int, serial uint16, encTTL, answerTTL uint32) vantage.Answer {
	return vantage.Answer{
		Outcome: vantage.Valid,
		Sent:    epoch.Add(time.Duration(m) * time.Minute).UnixNano(),
		Serial:  serial, EncTTL: encTTL, AnswerTTL: answerTTL,
	}
}

func TestWarmupThenAA(t *testing.T) {
	tr := NewTracker()
	// TTL 60 s, probing every 20 min: every answer after warm-up should
	// be a fresh AA (the paper's left bar of Figure 3).
	o := tr.Classify(ans(0, 1, 60, 60), 1)
	if o.Category != Warmup || o.TTLAltered {
		t.Fatalf("first = %+v", o)
	}
	o = tr.Classify(ans(20, 3, 60, 60), 3)
	if o.Category != AA {
		t.Errorf("second = %v, want AA", o.Category)
	}
}

func TestCCWithinTTL(t *testing.T) {
	tr := NewTracker()
	// TTL 3600 s, probing every 20 min: second answer is an old serial
	// with decremented TTL, a correct cache hit.
	tr.Classify(ans(0, 1, 3600, 3600), 1)
	o := tr.Classify(ans(20, 1, 3600, 2400), 3)
	if o.Category != CC {
		t.Errorf("got %v, want CC", o.Category)
	}
}

func TestACCacheMiss(t *testing.T) {
	tr := NewTracker()
	tr.Classify(ans(0, 1, 3600, 3600), 1)
	// Within TTL, but the answer is fresh (current serial, full TTL):
	// the recursive went to the authoritative anyway.
	o := tr.Classify(ans(20, 3, 3600, 3600), 3)
	if o.Category != AC {
		t.Errorf("got %v, want AC", o.Category)
	}
	if o.TTLAltered {
		t.Error("full-TTL AC flagged as altered")
	}
}

func TestCAExtendedCache(t *testing.T) {
	tr := NewTracker()
	tr.Classify(ans(0, 1, 60, 60), 1)
	// TTL expired long ago, yet the answer is an old serial: stale cache
	// (serve-stale, §5.3).
	o := tr.Classify(ans(20, 1, 60, 0), 3)
	if o.Category != CA {
		t.Errorf("got %v, want CA", o.Category)
	}
}

func TestTTLAlteredOnWarmup(t *testing.T) {
	tr := NewTracker()
	// Zone says 86400 but the resolver caps at 21600 (the paper's 30%
	// day-long truncations).
	o := tr.Classify(ans(0, 1, 86400, 21600), 1)
	if o.Category != Warmup || !o.TTLAltered {
		t.Errorf("outcome = %+v", o)
	}
	// And expectation tracking uses the *returned* TTL: at +7h the cap
	// has expired, so a fresh answer is AA, not AC.
	o = tr.Classify(ans(7*60, 43, 86400, 86400), 43)
	if o.Category != AA {
		t.Errorf("got %v, want AA", o.Category)
	}
}

func TestSerialDecreaseDetected(t *testing.T) {
	tr := NewTracker()
	tr.Classify(ans(0, 1, 3600, 3600), 1)
	tr.Classify(ans(20, 3, 3600, 3600), 3)      // AC, maxSerial=3
	o := tr.Classify(ans(40, 1, 3600, 1200), 5) // old serial resurfaces
	if !o.SerialDecreased {
		t.Error("serial decrease not detected (cache fragmentation)")
	}
	if o.Category != CC {
		t.Errorf("got %v, want CC", o.Category)
	}
}

func TestInvalidAnswersUnclassified(t *testing.T) {
	tr := NewTracker()
	bad := vantage.Answer{Outcome: vantage.Timeout}
	if o := tr.Classify(bad, 1); o.Category != Unclassified {
		t.Errorf("timeout classified as %v", o.Category)
	}
}

func TestTable2Aggregation(t *testing.T) {
	var tab Table2
	outcomes := []Outcome{
		{Category: Warmup},
		{Category: Warmup, TTLAltered: true},
		{Category: AA},
		{Category: CC},
		{Category: CC, SerialDecreased: true},
		{Category: AC},
		{Category: AC, TTLAltered: true},
		{Category: CA, SerialDecreased: true},
	}
	for _, o := range outcomes {
		tab.Add(o)
	}
	if tab.Warmup != 2 || tab.WarmupTTLZone != 1 || tab.WarmupTTLAltered != 1 {
		t.Errorf("warmup rows = %d/%d/%d", tab.Warmup, tab.WarmupTTLZone, tab.WarmupTTLAltered)
	}
	if tab.AA != 1 || tab.CC != 2 || tab.CCdec != 1 {
		t.Errorf("AA/CC/CCdec = %d/%d/%d", tab.AA, tab.CC, tab.CCdec)
	}
	if tab.AC != 2 || tab.ACTTLZone != 1 || tab.ACTTLAltered != 1 {
		t.Errorf("AC rows = %d/%d/%d", tab.AC, tab.ACTTLZone, tab.ACTTLAltered)
	}
	if tab.CA != 1 || tab.CAdec != 1 {
		t.Errorf("CA rows = %d/%d", tab.CA, tab.CAdec)
	}
	want := 2.0 / 6.0
	if got := tab.MissRate(); got != want {
		t.Errorf("MissRate = %v, want %v", got, want)
	}
}

func TestCategoryString(t *testing.T) {
	for c, want := range map[Category]string{
		Warmup: "Warmup", AA: "AA", CC: "CC", AC: "AC", CA: "CA",
		Unclassified: "Unclassified",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %s", c, c.String())
		}
	}
}
