package simnet_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hypermm/internal/algorithms"
	"hypermm/internal/core"
	"hypermm/internal/cost"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
	"hypermm/internal/trace"
)

// goldenCase is one run of the root package's runs.golden table.
type goldenCase struct {
	label string
	cfg   simnet.Config
	n     int
	run   cost.Runner
}

// goldenCases lists the runs.golden table: every algorithm-table entry
// under both port models at (n, p) = (48, 64), and every extension
// construction at its shape.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		cfg := func(p int, topo simnet.Topology) simnet.Config {
			return simnet.Config{P: p, Ports: pm, Ts: 150, Tw: 3, Tc: 0.5, Topology: topo}
		}
		for a := cost.Alg(0); ; a++ {
			e, ok := cost.Lookup(a)
			if !ok {
				break
			}
			cs = append(cs, goldenCase{fmt.Sprintf("%s %v", e.Name, pm), cfg(64, simnet.Hypercube), 48, e.Multiply})
		}
		cs = append(cs,
			goldenCase{fmt.Sprintf("3dgrid %v", pm), cfg(128, simnet.Hypercube), 32,
				func(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
					return core.ThreeAllGrid(m, A, B, 2)
				}},
			goldenCase{fmt.Sprintf("dnscannon %v", pm), cfg(32, simnet.Hypercube), 32,
				func(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
					return algorithms.DNSCannon(m, A, B, 8)
				}},
			goldenCase{fmt.Sprintf("3ddcannon %v", pm), cfg(32, simnet.Hypercube), 32,
				func(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
					return core.ThreeDiagCannon(m, A, B, 8)
				}},
			goldenCase{fmt.Sprintf("cannontorus %v", pm), cfg(9, simnet.Torus2D), 18, algorithms.CannonTorus},
			goldenCase{fmt.Sprintf("3ddtrans %v", pm), cfg(64, simnet.Hypercube), 48, core.ThreeDiagTrans},
			goldenCase{fmt.Sprintf("squaring %v", pm), cfg(64, simnet.Hypercube), 48,
				func(m *simnet.Machine, A, _ *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
					return core.ThreeAllRepeated(m, A, 2)
				}},
		)
	}
	return cs
}

// outcome is everything a run yields: product, statistics and trace.
type outcome struct {
	c      *matrix.Dense
	stats  simnet.RunStats
	events []trace.Event
}

func runCase(t *testing.T, gc goldenCase, seed uint64) outcome {
	t.Helper()
	cfg := gc.cfg
	cfg.Trace = trace.New()
	m := simnet.NewMachine(cfg)
	simnet.SetRunOrderSeed(m, seed)
	c, rs, err := gc.run(m, matrix.Random(gc.n, gc.n, 1), matrix.Random(gc.n, gc.n, 2))
	if err != nil {
		t.Fatalf("%s seed %d: %v", gc.label, seed, err)
	}
	// A node's events are logged in its program order, but nodes
	// interleave by execution order; sort on every field to compare.
	evs := cfg.Trace.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		switch {
		case a.Node != b.Node:
			return a.Node < b.Node
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.End != b.End:
			return a.End < b.End
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Peer != b.Peer:
			return a.Peer < b.Peer
		case a.Tag != b.Tag:
			return a.Tag < b.Tag
		}
		return a.Words < b.Words
	})
	return outcome{c, rs, evs}
}

// TestScheduleIndependence runs every runs.golden case under three
// seeded run-queue orders and requires the product, the RunStats and
// the trace of the FIFO run, bit for bit: the executor's order decides
// host time only.
func TestScheduleIndependence(t *testing.T) {
	for _, gc := range goldenCases() {
		want := runCase(t, gc, 0)
		for _, seed := range []uint64{1, 2, 3} {
			got := runCase(t, gc, seed)
			if !reflect.DeepEqual(got.c, want.c) {
				t.Errorf("%s seed %d: product differs from the FIFO run's", gc.label, seed)
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("%s seed %d: stats differ:\n got %+v\nwant %+v", gc.label, seed, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Errorf("%s seed %d: trace differs from the FIFO run's", gc.label, seed)
			}
		}
	}
}
