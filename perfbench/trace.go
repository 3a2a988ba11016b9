package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sanft/internal/sim"
	"sanft/internal/trace"
)

// span is one call the benchmark made into a layer, recorded in the traced
// run. Parent is the ID of the enclosing span (0 for a root); every span of
// one repetition shares its Run ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: do calls straight through and records nothing.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do records fn as a span named "<layer>.<function>", nested under the span
// that is open when it is called.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.open(name, time.Now())
	fn()
	t.close(id, time.Now())
}

// interval records an already finished [start, end) as a child of the open
// span, for work a public entry point bundles with other work and that can
// only be delimited from a hook.
func (t *tracer) interval(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.close(t.open(name, start), end)
}

func (t *tracer) open(name string, at time.Time) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: int64(at.Sub(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// close ends span id, which is the innermost open span.
func (t *tracer) close(id int, at time.Time) {
	t.spans[id-1].End = int64(at.Sub(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// total sums the durations of every span with this exact name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns, per layer (the span name up to its first dot), the
// time spent in that layer's spans minus the time covered by their child
// spans. Children run on the caller's goroutine one after another, so
// their durations never overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// blockMeter is a trace.Tracer that sums wormhole head-of-line blocking in
// simulated time: from a worm parking on a busy channel to its grant, or to
// the watchdog reset or drop that killed it.
type blockMeter struct {
	open  map[blockKey]sim.Time
	total time.Duration
}

type blockKey struct {
	src  int32
	gen  uint32
	seq  uint64
	link int32
	dir  uint8
}

func newBlockMeter() *blockMeter { return &blockMeter{open: make(map[blockKey]sim.Time)} }

func (m *blockMeter) Trace(e trace.Event) {
	switch e.Kind {
	case trace.EvLinkBlock:
		m.open[blockKey{int32(e.Node), e.Gen, e.Seq, e.Link, e.Dir}] = e.At
	case trace.EvLinkAcquire:
		k := blockKey{int32(e.Node), e.Gen, e.Seq, e.Link, e.Dir}
		if t0, ok := m.open[k]; ok {
			m.total += e.At.Sub(t0)
			delete(m.open, k)
		}
	case trace.EvWatchdog, trace.EvFabDrop:
		for k, t0 := range m.open {
			if k.src == int32(e.Node) && k.gen == e.Gen && k.seq == e.Seq {
				m.total += e.At.Sub(t0)
				delete(m.open, k)
			}
		}
	}
}
