package hypermm

import (
	"io"

	"hypermm/internal/simnet"
	"hypermm/internal/trace"
)

// Trace is the recorded event timeline of a traced run.
type Trace struct {
	log *trace.Log
}

// RunTraced is Run with event tracing enabled: every send, receive and
// compute span is recorded in simulated time. Tracing does not change
// the simulated clocks.
func RunTraced(alg Algorithm, cfg Config, A, B *Matrix) (*Result, *Trace, error) {
	run, err := alg.runner()
	if err != nil {
		return nil, nil, err
	}
	sc, err := cfg.machine()
	if err != nil {
		return nil, nil, err
	}
	log := trace.New()
	sc.Trace = log
	res, err := runOn(simnet.NewMachine(sc), run, A, B)
	if err != nil {
		return nil, nil, err
	}
	return res, &Trace{log: log}, nil
}

// Gantt renders the timeline as one text row per node, width columns
// wide ('#' compute, 's' send, 'r' receive, '.' idle). Widths below a
// small minimum — including zero and negative values — are clamped to
// that minimum rather than misrendering.
func (t *Trace) Gantt(width int) string { return t.log.Gantt(width) }

// Summary returns per-node busy-time totals and the overall
// compute/communication split.
func (t *Trace) Summary() string { return t.log.Summary() }

// ChromeJSON writes the timeline in the Chrome trace-event format
// (loadable in chrome://tracing or Perfetto): one B/E pair per
// send/receive/compute span, nodes rendered as threads. Simulated time
// maps to the format's microsecond unit.
func (t *Trace) ChromeJSON(w io.Writer) error { return t.log.ChromeJSON(w) }

// TimelineEvents returns a copy of the recorded per-node events sorted
// by (node, start). The element type lives in hypermm/internal/trace,
// so only packages inside this module can name it — it exists for the
// observability layer's merged exports (internal/obs), not for public
// consumption.
func (t *Trace) TimelineEvents() []trace.Event { return t.log.Events() }
