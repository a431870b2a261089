package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded by
// the benchmark around the call. Spans nest through Parent; spans that
// belong to one request (or one traced run) share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Run    int     `json:"run"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the
// traced run ends. It is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return time.Since(tr.t0).Seconds() }

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, parent, run int) int {
	start := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Run: run, Start: start, End: -1})
	return len(tr.spans)
}

// end closes span id and returns its duration in seconds.
func (tr *tracer) end(id int) float64 {
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = end
	return s.dur()
}

// add records an already measured interval (timestamps taken inside a
// callback) as a closed span.
func (tr *tracer) add(name string, parent, run int, start, end float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Run: run, Start: start, End: end})
}

// do runs fn inside a span and returns the span's duration in seconds.
func (tr *tracer) do(name string, parent, run int, fn func()) float64 {
	id := tr.begin(name, parent, run)
	fn()
	return tr.end(id)
}

// total sums the durations of every closed span called name.
func (tr *tracer) total(name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sum := 0.0
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			sum += s.dur()
		}
	}
	return sum
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its children
// (children may overlap, as concurrent requests do, so their union is
// subtracted).
func (tr *tracer) selfTimes() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += s.dur() - coveredBy(s, children[s.ID])
	}
	return self
}

// coveredBy returns the length of the union of the children's
// intervals, clipped to the parent's interval.
func coveredBy(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	covered, curS, curE := 0.0, -1.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			covered += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return covered + curE - curS
}

// write emits the trace as one JSON document: the spans in start order
// and the self time per span name.
func (tr *tracer) write(w io.Writer, header map[string]any) error {
	self := tr.selfTimes()
	tr.mu.Lock()
	spans := slices.Clone(tr.spans)
	tr.mu.Unlock()
	doc := map[string]any{"spans": spans, "self_s": self}
	for k, v := range header {
		doc[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// at converts a wall-clock instant to seconds since the tracer started.
func (tr *tracer) at(t time.Time) float64 { return t.Sub(tr.t0).Seconds() }
