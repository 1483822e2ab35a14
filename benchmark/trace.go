package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from this directory's
// files only, around the calls into each layer; Parent 0 is a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	StartNs int64  `json:"start_ns"` // since the recorder was created
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until write.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(parent int, name, tag string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Tag: tag,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// open reserves a span that children can name as their parent; the
// returned func closes it.
func (r *recorder) open(parent int, name string) (id int, done func()) {
	start := time.Now()
	id = r.add(parent, name, "", start, start)
	return id, func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].EndNs = end
		r.mu.Unlock()
	}
}

// timed runs f inside a span and returns how long it took.
func (r *recorder) timed(parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(parent, name, "", start, end)
	return end.Sub(start)
}

// selfNs is a span's duration minus the part its children cover.
func (r *recorder) selfNs(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	self := s.EndNs - s.StartNs
	for _, c := range r.spans {
		if c.Parent == id {
			self -= c.EndNs - c.StartNs
		}
	}
	return self
}

// write stores the spans as benchmark/out/trace.json.
func (r *recorder) write() (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
