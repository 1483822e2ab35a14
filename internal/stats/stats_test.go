package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// Input must not be mutated.
	shuffled := []float64{3, 1, 2}
	Quantile(shuffled, 0.5)
	if shuffled[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestMeanMedian(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); !almost(got, 3) {
		t.Errorf("Median = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	s := Summarize(vals)
	if s.N != 100 || !almost(s.Mean, 50.5) || !almost(s.Median, 50.5) || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.P90 < 90 || s.P90 > 91 {
		t.Errorf("P90 = %v", s.P90)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almost(got, c.want) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.InverseAt(0.5); got != 2 {
		t.Errorf("InverseAt(0.5) = %v", got)
	}
	if got := e.InverseAt(1); got != 3 {
		t.Errorf("InverseAt(1) = %v", got)
	}
	pts := e.Points(4)
	if len(pts) != 4 || pts[3].Y != 1 {
		t.Errorf("points = %v", pts)
	}
}

// Property: ECDF.At is monotone and bounded in [0,1].
func TestQuickECDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vals := make([]float64, 50)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
		}
		e := NewECDF(vals)
		prev := -1.0
		for x := -300.0; x <= 300; x += 10 {
			p := e.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q and within [min, max].
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vals := make([]float64, 1+r.Intn(40))
		for i := range vals {
			vals[i] = r.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(vals, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
