package experiment_test

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/experiment"
	"repro/internal/netsim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// carriedProbes is the toy size every committed spec runs at here.
const carriedProbes = 48

// TestCarriedMessageMatchesWire runs every committed spec at toy size
// with a byte tap on every cell's network, so the network packs every
// message it is handed at send. For each packet that carries a message,
// the tap decodes the bytes and compares the result with that message at
// arrival: header, questions, and every record's name, class, TTL, type
// and data. Engines read the carried message instead of decoding, so any
// difference (a sender packing something else, or changing what a sent
// message shares before it arrives) would be a difference in behaviour.
func TestCarriedMessageMatchesWire(t *testing.T) {
	root := filepath.Join("..", "..", "examples", "specs")
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs under %s: %v", root, err)
	}
	for _, path := range paths {
		rel, _ := filepath.Rel(root, path)
		t.Run(rel, func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := spec.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			items, err := spec.CompileAll(s, rel)
			if err != nil {
				t.Fatal(err)
			}
			var (
				testbeds, carried atomic.Int64
				once              sync.Once
				mismatch          string
			)
			tap := func(tb *experiment.Testbed) {
				testbeds.Add(1)
				var scratch dnswire.Message
				tb.Net.AddTap(func(ev netsim.Event) {
					if ev.Msg == nil {
						return
					}
					carried.Add(1)
					if diff := wireDiff(&scratch, ev.Payload, ev.Msg); diff != "" {
						once.Do(func() {
							mismatch = fmt.Sprintf("packet %s -> %s at %s: %s\ncarried:\n%s",
								ev.Src, ev.Dst, ev.Time.Sub(tb.Start), diff, ev.Msg)
						})
					}
				})
			}
			for _, it := range items {
				cfg := it.Config
				cfg.Probes = carriedProbes
				if _, err := experiment.Run(context.Background(), it.Scenario, experiment.WithTestbedHook(cfg, tap)); err != nil {
					t.Fatalf("%s: %v", it.Name, err)
				}
				if mismatch != "" {
					t.Fatalf("%s, run %s: the carried message differs from its bytes decoded: %s", rel, it.Name, mismatch)
				}
			}
			if testbeds.Load() == 0 || carried.Load() == 0 {
				t.Fatalf("%s: %d testbeds, %d packets with a carried message; want both > 0", rel, testbeds.Load(), carried.Load())
			}
			t.Logf("%d runs, %d testbeds, %d packets checked", len(items), testbeds.Load(), carried.Load())
		})
	}
}

// TestUntracedCellPacksNothing runs the DDoS experiment H cell, untraced
// and traced, and the caching cells untraced at toy size, with a message
// tap that counts the packets whose bytes exist at arrival: every engine
// there hands its messages over unpacked, and nothing reads bytes (the
// trace reads the message), so none is packed.
func TestUntracedCellPacksNothing(t *testing.T) {
	for _, c := range []struct {
		file, run string
		traced    bool
	}{
		{"03-ddos.json", "paper-H", false},
		{"03-ddos.json", "paper-H", true},
		{"01-caching.json", "", false},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "paper", c.file))
		if err != nil {
			t.Fatal(err)
		}
		s, err := spec.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		items, err := spec.CompileAll(s, c.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if c.run != "" && it.Name != c.run {
				continue
			}
			var packets, packed atomic.Int64 // cells may run in parallel
			tap := func(tb *experiment.Testbed) {
				tb.Net.AddMsgTap(func(ev netsim.Event) {
					packets.Add(1)
					if ev.Payload != nil {
						packed.Add(1)
					}
				})
			}
			cfg := it.Config
			cfg.Probes = carriedProbes
			if c.traced {
				cfg.Trace = &trace.Config{}
			}
			out, err := experiment.Run(context.Background(), it.Scenario, experiment.WithTestbedHook(cfg, tap))
			if err != nil {
				t.Fatalf("%s: %v", it.Name, err)
			}
			if c.traced && (out.Trace == nil || len(out.Trace.Cells) == 0 || len(out.Trace.Cells[0].Events) == 0) {
				t.Fatalf("%s: the traced run recorded nothing", it.Name)
			}
			if packets.Load() == 0 || packed.Load() != 0 {
				t.Errorf("%s, run %s, traced %v: %d of %d packets packed, want 0 of > 0", c.file, it.Name, c.traced, packed.Load(), packets.Load())
			}
			t.Logf("%s, traced %v: %d packets, none packed", it.Name, c.traced, packets.Load())
		}
	}
}

// wireDiff decodes payload into scratch and describes the first way it
// differs from m, "" when it does not.
func wireDiff(scratch *dnswire.Message, payload []byte, m *dnswire.Message) string {
	if err := dnswire.UnpackInto(scratch, payload); err != nil {
		return "bytes do not decode: " + err.Error()
	}
	if scratch.Header != m.Header {
		return fmt.Sprintf("header %+v, carried %+v", scratch.Header, m.Header)
	}
	if len(scratch.Questions) != len(m.Questions) {
		return fmt.Sprintf("%d questions, carried %d", len(scratch.Questions), len(m.Questions))
	}
	for i, q := range scratch.Questions {
		if q != m.Questions[i] {
			return fmt.Sprintf("question %d is %v, carried %v", i, q, m.Questions[i])
		}
	}
	for _, sec := range []struct {
		name             string
		decoded, carried []dnswire.RR
	}{
		{"answer", scratch.Answers, m.Answers},
		{"authority", scratch.Authorities, m.Authorities},
		{"additional", scratch.Additionals, m.Additionals},
	} {
		if len(sec.decoded) != len(sec.carried) {
			return fmt.Sprintf("%d %s records, carried %d", len(sec.decoded), sec.name, len(sec.carried))
		}
		for i, rr := range sec.decoded {
			c := sec.carried[i]
			if rr.Name != c.Name || rr.Class != c.Class || rr.TTL != c.TTL ||
				rr.Type() != c.Type() || !rr.Data.Equal(c.Data) {
				return fmt.Sprintf("%s record %d is %v, carried %v", sec.name, i, rr, c)
			}
		}
	}
	return ""
}
