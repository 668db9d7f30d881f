package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls; nothing inside the program is instrumented.
// Spans of one library op or one request share Op; Parent is the id of the
// enclosing span (0 for a root). Times are milliseconds since the tracer
// started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one comparison per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its id (0 on a nil tracer).
func (t *tracer) add(name, tag string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Tag: tag,
		Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch)),
	})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one span never overlap — the benchmark makes its calls one
// after another — so their durations add.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// coverage is the share of the root span's wall time accounted for by the
// self times of its descendants; the rest is time spent between the calls
// the spans wrap.
func coverage(spans []span, root int) float64 {
	self := selfTimes(spans)
	children := make(map[int][]int)
	var rootDur float64
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
		if s.ID == root {
			rootDur = s.dur()
		}
	}
	if rootDur <= 0 {
		return 0
	}
	var covered float64
	stack := append([]int(nil), children[root]...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		covered += self[id]
		stack = append(stack, children[id]...)
	}
	return covered / rootDur
}
