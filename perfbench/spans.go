package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// span that was open when this one began (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed run carries only the nil checks.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, attr string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Attr: attr, Start: int64(time.Since(t.t0)), End: -1})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans)
}

// end closes span id and every span opened inside it that is still open.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	for len(t.open) > 0 {
		i := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[i].End = now
		if t.spans[i].ID == id {
			return
		}
	}
}

// finish computes self times: a span's duration minus the time its
// children cover (children never overlap: the benchmark is sequential).
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
