package trace_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

// FuzzReadJSONL feeds arbitrary bytes to the trace reader and, when they
// parse, through every offline analysis `dikes trace` runs on a file:
// none may panic, and none may size memory by a count the file merely
// declares. The seed is a recorded 30-probe glue run (every tenth probe
// traced, so the mutator has a corpus entry of ~10 KB, not MBs); the two
// cell headers that crashed makeslice are the committed corpus under
// testdata/fuzz.
func FuzzReadJSONL(f *testing.F) {
	out, err := experiment.Run(context.Background(), experiment.GlueScenario(),
		experiment.RunConfig{Probes: 30, Seed: 42, Shards: 1, Trace: &trace.Config{SampleEvery: 10}})
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	if err := out.Trace.WriteJSONL(&rec); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add([]byte(`{"v":1,"sample":4,"cells":1}` + "\n" + `{"cell":0,"events":2,"dropped":0}` + "\n" +
		`{"at":5,"ev":"stub_answer","probe":2,"a":2,"b":7,"name":"2.cachetest.nl."}` + "\n" +
		`{"at":1,"ev":"stub_issue","probe":1,"b":7}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		td, err := trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		td.Validate()
		td.TypeCounts()
		for _, sp := range td.Spans() {
			td.Explain(sp)
		}
		td.FirstFailure()
		td.FirstHijack()
		if err := td.WriteChrome(io.Discard); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
	})
}
