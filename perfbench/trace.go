package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one chunk
// share a request id (session#chunk); Parent indexes the enclosing
// span (-1 for a root). N is the work the call carried (input events
// for decode, ingest and convert calls).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    string `json:"req,omitempty"`
	N      int64  `json:"n,omitempty"`
}

// Root span names: the timed phase, the repetition's set-up, and probe
// calls the traced run adds (kept out of the closure sums).
const (
	rootTimed = "bench.timed"
	rootSetup = "bench.setup"
	rootProbe = "bench.probe"
)

// tracer keeps every span in memory; dump writes them out once the run
// ends. A nil tracer records nothing, so the untraced load shape pays
// one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent int32, req string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.endN(i, 0) }

func (t *tracer) endN(i int32, n int64) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.spans[i].N = n
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	n     int64
	total float64 // seconds
	self  float64 // seconds not covered by child spans
}

// summary folds the spans per name, split by their root: spans under
// a timed root, and all spans regardless of root.
type summary struct {
	timed, all map[string]*spanStats
}

func (t *tracer) summarize() summary {
	s := summary{timed: map[string]*spanStats{}, all: map[string]*spanStats{}}
	self := make([]float64, len(t.spans))
	root := make([]int32, len(t.spans))
	for i, sp := range t.spans {
		d := float64(sp.End-sp.Start) / 1e9
		self[i] += d
		root[i] = int32(i)
		if sp.Parent >= 0 {
			self[sp.Parent] -= d
			root[i] = root[sp.Parent]
		}
	}
	add := func(m map[string]*spanStats, i int) {
		sp := t.spans[i]
		st := m[sp.Name]
		if st == nil {
			st = &spanStats{}
			m[sp.Name] = st
		}
		d := float64(sp.End-sp.Start) / 1e9
		st.count++
		st.n += sp.N
		st.total += d
		st.self += self[i]
	}
	for i := range t.spans {
		add(s.all, i)
		if t.spans[root[i]].Name == rootTimed {
			add(s.timed, i)
		}
	}
	return s
}

// layerSelf sums the self time of every layer span (benchmark spans
// excluded) under timed roots, keyed by layer (the name's first
// dotted element).
func (s summary) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for name, st := range s.timed {
		if layer, _, _ := strings.Cut(name, "."); layer != "bench" {
			out[layer] += st.self
		}
	}
	return out
}

func (s summary) get(name string) *spanStats {
	if st := s.all[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// dump writes the spans as one JSON document.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Origin time.Time `json:"origin"`
		Spans  []span    `json:"spans"`
	}{t.origin, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
