package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestAddAndEventsSorted(t *testing.T) {
	l := New()
	l.Add(Event{Node: 1, Kind: Compute, Start: 5, End: 9})
	l.Add(Event{Node: 0, Kind: Send, Start: 2, End: 3, Peer: 1, Words: 4})
	l.Add(Event{Node: 0, Kind: Recv, Start: 0, End: 1, Peer: 1, Words: 4})
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Node != 0 || evs[0].Start != 0 || evs[2].Node != 1 {
		t.Errorf("events not sorted: %+v", evs)
	}
}

func TestSpan(t *testing.T) {
	l := New()
	if l.Span() != 0 {
		t.Error("empty span not zero")
	}
	l.Add(Event{Node: 0, Kind: Compute, Start: 1, End: 7})
	l.Add(Event{Node: 1, Kind: Send, Start: 2, End: 4})
	if l.Span() != 7 {
		t.Errorf("span = %g", l.Span())
	}
}

func TestGanttRendering(t *testing.T) {
	l := New()
	l.Add(Event{Node: 0, Kind: Compute, Start: 0, End: 50})
	l.Add(Event{Node: 1, Kind: Send, Start: 0, End: 25, Peer: 0})
	l.Add(Event{Node: 1, Kind: Recv, Start: 25, End: 50, Peer: 0})
	g := l.Gantt(20)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 { // header + 2 nodes
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "####################") {
		t.Errorf("node 0 row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "ssssssssss") || !strings.Contains(lines[2], "rrrrrrrrrr") {
		t.Errorf("node 1 row wrong: %q", lines[2])
	}
}

func TestGanttNarrowWidthClamped(t *testing.T) {
	// Regression: width < 1 (and anything below the minimum) must clamp
	// to minGanttWidth instead of panicking in strings.Repeat or
	// misrendering a zero-column chart.
	l := New()
	l.Add(Event{Node: 0, Kind: Compute, Start: 0, End: 10})
	l.Add(Event{Node: 1, Kind: Send, Start: 0, End: 10, Peer: 0})
	want := l.Gantt(minGanttWidth)
	for _, w := range []int{0, -1, -100, 1, minGanttWidth - 1} {
		got := l.Gantt(w)
		if got != want {
			t.Errorf("Gantt(%d) differs from Gantt(%d):\n%s", w, minGanttWidth, got)
		}
		row := strings.Split(got, "\n")[1]
		if !strings.Contains(row, strings.Repeat("#", minGanttWidth)) {
			t.Errorf("Gantt(%d) node 0 row not clamped: %q", w, row)
		}
	}
}

func TestGanttPrecedence(t *testing.T) {
	// Overlapping compute wins over send over recv.
	l := New()
	l.Add(Event{Node: 0, Kind: Recv, Start: 0, End: 10})
	l.Add(Event{Node: 0, Kind: Send, Start: 0, End: 10})
	l.Add(Event{Node: 0, Kind: Compute, Start: 0, End: 5})
	g := l.Gantt(10)
	row := strings.Split(strings.TrimSpace(g), "\n")[1]
	if !strings.Contains(row, "#####sssss") {
		t.Errorf("precedence row = %q", row)
	}
}

func TestGanttEmpty(t *testing.T) {
	if g := New().Gantt(10); !strings.Contains(g, "no events") {
		t.Errorf("empty gantt = %q", g)
	}
}

func TestSummaryAndPerNode(t *testing.T) {
	l := New()
	l.Add(Event{Node: 0, Kind: Compute, Start: 0, End: 60})
	l.Add(Event{Node: 0, Kind: Send, Start: 60, End: 100})
	l.Add(Event{Node: 1, Kind: Recv, Start: 0, End: 100})
	s := l.Summary()
	if !strings.Contains(s, "compute") || !strings.Contains(s, "overall:") {
		t.Errorf("summary = %q", s)
	}
	per := l.PerNode()
	if len(per) != 2 {
		t.Fatalf("per-node entries = %d", len(per))
	}
	if per[0].ComputeTime != 60 || per[0].SendTime != 40 {
		t.Errorf("node 0 stats = %+v", per[0])
	}
	if per[1].RecvTime != 100 || per[1].Events != 1 {
		t.Errorf("node 1 stats = %+v", per[1])
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Add(Event{Node: g, Kind: Compute, Start: float64(i), End: float64(i + 1)})
			}
		}(g)
	}
	wg.Wait()
	if n := len(l.Events()); n != 800 {
		t.Errorf("events = %d, want 800", n)
	}
}

func TestKindStrings(t *testing.T) {
	if Send.String() != "send" || Recv.String() != "recv" || Compute.String() != "compute" {
		t.Error("kind strings wrong")
	}
}

func TestGanttOverlapUnderMultiPort(t *testing.T) {
	// Two simultaneous sends on one node (multi-port) overlay in its
	// Gantt row rather than appearing sequential.
	l := New()
	l.Add(Event{Node: 0, Kind: Send, Start: 0, End: 10, Peer: 1})
	l.Add(Event{Node: 0, Kind: Send, Start: 0, End: 10, Peer: 2})
	row := strings.Split(strings.TrimSpace(l.Gantt(10)), "\n")[1]
	if !strings.Contains(row, "ssssssssss") {
		t.Errorf("overlapped sends row = %q", row)
	}
}
