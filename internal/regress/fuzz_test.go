package regress

import "testing"

// FuzzRegressParse feeds arbitrary bytes to the `dikes diff` loader:
// Parse never panics, and whatever it accepts compares equal to itself
// (a document that diffs against itself is a flattening bug — a NaN
// value, a key built from unstable input).
func FuzzRegressParse(f *testing.F) {
	f.Add([]byte(reportsJSON))
	f.Add([]byte(timelineJSON))
	f.Add([]byte(`{"reports":[{"name":"r","metrics":{"scopes":[{"name":"s","histograms":{"h":{"bounds":[1],"counts":[1,2,3],"count":-1,"sum":1e308}}}]}}]}`))
	f.Add([]byte(`{"bucket":1,"metrics":[],"bins":[[1,2],[]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		if deltas := Compare(d, d, Options{}); len(deltas) != 0 {
			t.Fatalf("document differs from itself: %+v", deltas)
		}
		Render(Compare(d, &Doc{Kind: d.Kind, Values: map[string]float64{}}, Options{}))
	})
}
