package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: a name, its interval in nanoseconds
// since the tracer's epoch, the index of the span that caused it within the
// same operation (-1 for an operation's root) and the operation's id.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps every committed span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace collects one operation's spans on one goroutine without locking;
// commit hands them to the tracer in one step.
type opTrace struct {
	t     *tracer
	op    int64
	spans []span
}

// op starts a new operation with a fresh id.
func (t *tracer) op() *opTrace {
	return &opTrace{t: t, op: t.ops.Add(1), spans: make([]span, 0, 8)}
}

// begin opens a span under parent (-1 for the operation's root).
func (o *opTrace) begin(name string, parent int32) int32 {
	o.spans = append(o.spans, span{Name: name, Op: o.op, Parent: parent, Start: int64(time.Since(o.t.epoch))})
	return int32(len(o.spans) - 1)
}

func (o *opTrace) end(i int32) { o.spans[i].End = int64(time.Since(o.t.epoch)) }

func (o *opTrace) commit() {
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
}

// layerTimes is the self time (a span's duration minus its direct children's)
// and the call count of every span name, over a set of committed spans.
type layerTimes map[string]*layerTime

type layerTime struct {
	self  time.Duration
	total time.Duration
	calls int64
}

// layers aggregates the spans committed since index from (spans of one
// operation are contiguous, so parents resolve within their op's block).
func (t *tracer) layers(from int) layerTimes {
	t.mu.Lock()
	spans := t.spans[from:]
	t.mu.Unlock()
	out := layerTimes{}
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	base := 0
	for i, s := range spans {
		if i == 0 || s.Op != spans[i-1].Op {
			base = i
		}
		d := time.Duration(s.End - s.Start)
		lt := get(s.Name)
		lt.self += d
		lt.total += d
		lt.calls++
		if s.Parent >= 0 {
			get(spans[base+int(s.Parent)].Name).self -= d
		}
	}
	return out
}

func (lt layerTimes) self(name string) time.Duration {
	if l := lt[name]; l != nil {
		return l.self
	}
	return 0
}

func (lt layerTimes) total(name string) time.Duration {
	if l := lt[name]; l != nil {
		return l.total
	}
	return 0
}

func (lt layerTimes) calls(name string) int64 {
	if l := lt[name]; l != nil {
		return l.calls
	}
	return 0
}

// mark returns the number of spans committed so far.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
