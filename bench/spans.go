package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hypermm/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. IDs are small integers while the run is going
// and are widened to the obs hex form only when the file is written.
type span struct {
	name    string
	process string // track label in the trace viewer
	trace   uint64 // one per replayed or generated request
	id      uint64
	parent  uint64 // 0: root
	start   int64  // unix nanos
	end     int64
	attrs   map[string]any
}

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use.
type recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newID hands out trace and span IDs (never 0, which means "no parent").
func (r *recorder) newID() uint64 { return r.next.Add(1) }

// add records a finished span and returns its ID.
func (r *recorder) add(s span) uint64 {
	if s.id == 0 {
		s.id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.id
}

// timed runs fn inside a span.
func (r *recorder) timed(name, process string, trace, parent uint64, attrs map[string]any, fn func()) (id uint64, d time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	id = r.add(span{name: name, process: process, trace: trace, parent: parent,
		start: start.UnixNano(), end: end.UnixNano(), attrs: attrs})
	return id, end.Sub(start)
}

// writeChrome writes every span as Chrome trace-event JSON through the
// exporter internal/obs uses for /v1/trace/{id}, so the files open in
// the same viewers and carry the same args (trace_id, span_id,
// parent_id).
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	td := obs.TraceData{Spans: make([]obs.SpanData, len(r.spans))}
	for i, s := range r.spans {
		sd := obs.SpanData{
			TraceID: fmt.Sprintf("%032x", s.trace),
			SpanID:  fmt.Sprintf("%016x", s.id),
			Name:    s.name, Process: s.process,
			Start: s.start, End: s.end, Attrs: s.attrs,
		}
		if s.parent != 0 {
			sd.Parent = fmt.Sprintf("%016x", s.parent)
		}
		td.Spans[i] = sd
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := td.ChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
