// Package trace records per-node event timelines of a simulated run —
// sends, receives and compute spans in simulated time — and renders
// them as text Gantt charts and utilization summaries. It is the
// observability layer of the emulator: attach a Log to a
// simnet.Config, run, and render.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	Send Kind = iota
	Recv
	Compute
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Compute:
		return "compute"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// glyph is the Gantt bar character per kind.
func (k Kind) glyph() byte {
	switch k {
	case Send:
		return 's'
	case Recv:
		return 'r'
	case Compute:
		return '#'
	default:
		return '?'
	}
}

// Event is one timed action on one node.
type Event struct {
	Node       int
	Kind       Kind
	Start, End float64
	Peer       int // other endpoint for send/recv, -1 for compute
	Words      int
	Tag        uint64
}

// Log accumulates events from node programs; it is safe for
// concurrent use.
// The zero value is not usable; use New.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends an event; safe for concurrent use.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by (node, start).
func (l *Log) Events() []Event {
	l.mu.Lock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// Span returns the latest event end time.
func (l *Log) Span() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var span float64
	for _, e := range l.events {
		if e.End > span {
			span = e.End
		}
	}
	return span
}

// minGanttWidth is the narrowest rendering Gantt accepts. Anything
// narrower — including zero and negative widths, which would otherwise
// panic in strings.Repeat or index out of range — is clamped up to it.
const minGanttWidth = 8

// Gantt renders one timeline row per node, width columns wide:
// '#' compute, 's' port busy sending, 'r' port busy receiving,
// '.' idle. Overlapping events (multi-port machines) are overlaid with
// compute taking precedence, then send, then recv. Widths below
// minGanttWidth (including width < 1) are clamped, never an error.
func (l *Log) Gantt(width int) string {
	if width < minGanttWidth {
		width = minGanttWidth
	}
	evs := l.Events()
	if len(evs) == 0 {
		return "(no events)\n"
	}
	span := l.Span()
	if span <= 0 {
		return "(zero-length run)\n"
	}
	maxNode := 0
	for _, e := range evs {
		if e.Node > maxNode {
			maxNode = e.Node
		}
	}
	rows := make([][]byte, maxNode+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	prec := func(g byte) int {
		switch g {
		case '#':
			return 3
		case 's':
			return 2
		case 'r':
			return 1
		default:
			return 0
		}
	}
	for _, e := range evs {
		lo := int(e.Start / span * float64(width))
		hi := int(e.End / span * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		g := e.Kind.glyph()
		for x := lo; x < hi; x++ {
			if prec(g) > prec(rows[e.Node][x]) {
				rows[e.Node][x] = g
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline over [0, %.1f] (#=compute s=send r=recv .=idle)\n", span)
	for id, row := range rows {
		fmt.Fprintf(&sb, "node %4d |%s|\n", id, row)
	}
	return sb.String()
}

// NodeStats summarizes one node's utilization.
type NodeStats struct {
	Node               int
	SendTime, RecvTime float64
	ComputeTime        float64
	Events             int
}

// Summary returns per-node busy-time totals and the overall
// compute/communication split.
func (l *Log) Summary() string {
	per := l.PerNode()
	if len(per) == 0 {
		return "(no events)\n"
	}
	span := l.Span()
	var sb strings.Builder
	var totC, totM float64
	fmt.Fprintf(&sb, "%-8s %10s %10s %10s %8s\n", "node", "compute", "send", "recv", "busy%")
	for _, s := range per {
		busy := 0.0
		if span > 0 {
			busy = 100 * (s.ComputeTime + s.SendTime + s.RecvTime) / span
		}
		fmt.Fprintf(&sb, "%-8d %10.1f %10.1f %10.1f %7.1f%%\n", s.Node, s.ComputeTime, s.SendTime, s.RecvTime, busy)
		totC += s.ComputeTime
		totM += s.SendTime + s.RecvTime
	}
	if totC+totM > 0 {
		fmt.Fprintf(&sb, "overall: %.1f%% compute, %.1f%% communication (of busy time)\n",
			100*totC/(totC+totM), 100*totM/(totC+totM))
	}
	return sb.String()
}

// PerNode returns the utilization records sorted by node id.
func (l *Log) PerNode() []NodeStats {
	evs := l.Events()
	per := map[int]*NodeStats{}
	for _, e := range evs {
		s, okk := per[e.Node]
		if !okk {
			s = &NodeStats{Node: e.Node}
			per[e.Node] = s
		}
		d := e.End - e.Start
		switch e.Kind {
		case Send:
			s.SendTime += d
		case Recv:
			s.RecvTime += d
		case Compute:
			s.ComputeTime += d
		}
		s.Events++
	}
	out := make([]NodeStats, 0, len(per))
	for _, s := range per {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
