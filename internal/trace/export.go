package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Data is a whole run's merged trace: one CellTrace per population cell,
// in cell-index order. Because cell layout depends only on (probes,
// cell size, seed) and each cell's events are stamped by its own
// single-threaded virtual clock, Data marshals to identical bytes for
// any shard or worker count.
type Data struct {
	SampleEvery int
	Cells       []CellTrace
}

// CellTrace is one cell's retained events, oldest-first.
type CellTrace struct {
	Cell    int
	Dropped uint64
	Events  []Event
}

// Events returns the total retained event count.
func (d *Data) Len() int {
	n := 0
	for _, c := range d.Cells {
		n += len(c.Events)
	}
	return n
}

// jsonlHeader is the first line of a JSONL trace.
type jsonlHeader struct {
	V      int `json:"v"`
	Sample int `json:"sample"`
	Cells  int `json:"cells"`
}

// jsonlCell announces a cell's event stream.
type jsonlCell struct {
	Cell    int    `json:"cell"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// jsonlEvent is one event line. Field order is fixed by the struct, so
// output bytes are deterministic.
type jsonlEvent struct {
	At    int64  `json:"at"` // ns since the run epoch (simulated)
	Ev    string `json:"ev"`
	Probe uint16 `json:"probe,omitempty"`
	A     uint32 `json:"a,omitempty"`
	B     uint32 `json:"b,omitempty"`
	Name  string `json:"name,omitempty"`
	Src   string `json:"src,omitempty"`
	Dst   string `json:"dst,omitempty"`
}

// WriteJSONL writes the canonical trace format: a header line, then per
// cell a cell line followed by its event lines, one JSON object each.
func (d *Data) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{V: 1, Sample: d.SampleEvery, Cells: len(d.Cells)}); err != nil {
		return err
	}
	for _, c := range d.Cells {
		if err := enc.Encode(jsonlCell{Cell: c.Cell, Events: len(c.Events), Dropped: c.Dropped}); err != nil {
			return err
		}
		for _, ev := range c.Events {
			line := jsonlEvent{
				At: int64(ev.At), Ev: ev.Type.String(), Probe: ev.Probe,
				A: ev.A, B: ev.B, Name: ev.Name, Src: ev.Src, Dst: ev.Dst,
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Data, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	var h jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if h.V != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", h.V)
	}
	d := &Data{SampleEvery: h.Sample}
	for i := 0; i < h.Cells; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("trace: truncated at cell %d", i)
		}
		var ch jsonlCell
		if err := json.Unmarshal(sc.Bytes(), &ch); err != nil {
			return nil, fmt.Errorf("trace: bad cell header: %w", err)
		}
		ct := CellTrace{Cell: ch.Cell, Dropped: ch.Dropped} // ch.Events is outside input: never sizes memory
		for j := 0; j < ch.Events; j++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("trace: truncated in cell %d", ch.Cell)
			}
			var le jsonlEvent
			if err := json.Unmarshal(sc.Bytes(), &le); err != nil {
				return nil, fmt.Errorf("trace: bad event: %w", err)
			}
			t := ParseType(le.Ev)
			if t == EvNone {
				return nil, fmt.Errorf("trace: unknown event type %q", le.Ev)
			}
			ct.Events = append(ct.Events, Event{
				At: time.Duration(le.At), Type: t, Probe: le.Probe,
				A: le.A, B: le.B, Name: le.Name, Src: le.Src, Dst: le.Dst,
			})
		}
		d.Cells = append(d.Cells, ct)
	}
	return d, sc.Err()
}

// chromeEvent is one Chrome trace_event entry. Stub query spans become
// complete ("X") events with a duration; everything else is a
// thread-scoped instant ("i"). pid = cell, tid = probe.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChrome writes the trace in Chrome trace_event JSON format
// (loadable in Perfetto / about://tracing). Stub query spans are
// rendered as complete events so concurrent queries from one probe to
// several recursives do not violate the begin/end stack discipline.
func (d *Data) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for _, c := range d.Cells {
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: c.Cell,
			Args: map[string]any{"name": fmt.Sprintf("cell %d", c.Cell)},
		}); err != nil {
			return err
		}
		spans, _ := matchSpans(c, d.SampleEvery)
		for _, sp := range spans {
			if !sp.Complete {
				continue
			}
			if err := emit(chromeEvent{
				Name: "query " + sp.Name, Cat: "stub", Ph: "X",
				Ts: usec(sp.Start), Dur: usec(sp.End - sp.Start),
				Pid: c.Cell, Tid: int(sp.Probe),
				Args: map[string]any{"id": sp.ID, "outcome": sp.Outcome, "retries": sp.Retries},
			}); err != nil {
				return err
			}
		}
		for _, ev := range c.Events {
			if ev.Type == EvStubIssue || ev.Type == EvStubAnswer || ev.Type == EvStubTimeout {
				continue // folded into the X span above
			}
			args := map[string]any{}
			if ev.A != 0 {
				args["a"] = ev.A
			}
			if ev.B != 0 {
				args["b"] = ev.B
			}
			if ev.Name != "" {
				args["name"] = ev.Name
			}
			if ev.Src != "" {
				args["src"] = ev.Src
			}
			if ev.Dst != "" {
				args["dst"] = ev.Dst
			}
			if err := emit(chromeEvent{
				Name: ev.Type.String(), Cat: "sim", Ph: "i",
				Ts: usec(ev.At), Pid: c.Cell, Tid: int(ev.Probe),
				Scope: "t", Args: args,
			}); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChrome parses a Chrome trace_event document and checks the
// fields Perfetto requires (ph, ts, pid, tid, name per event). It
// returns the event count.
func ValidateChrome(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("trace: chrome JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace: chrome JSON has no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				return 0, fmt.Errorf("trace: chrome event %d missing %q", i, key)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			return 0, fmt.Errorf("trace: chrome event %d bad ph: %w", i, err)
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				return 0, fmt.Errorf("trace: chrome event %d missing ts", i)
			}
		}
	}
	return len(doc.TraceEvents), nil
}
