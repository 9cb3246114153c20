package cost

import (
	"testing"

	"hypermm/internal/core"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// This file cross-validates the analytic Table 2 model against the
// channel-level emulation: for every algorithm, the measured (a, b)
// communication coefficients — obtained by running the real SPMD
// program with (t_s,t_w) = (1,0) and (0,1) — must not exceed the
// analytic expressions (which charge phases as sequential worst cases)
// and must lie within a reasonable factor of them. Each algorithm runs
// through its table entry's runner.

func measured(t *testing.T, alg Alg, p, n int, pm simnet.PortModel) (a, b float64) {
	t.Helper()
	e, _ := Lookup(alg)
	A := matrix.Random(n, n, 21)
	B := matrix.Random(n, n, 22)
	for i, cfg := range []struct{ ts, tw float64 }{{1, 0}, {0, 1}} {
		m := simnet.NewMachine(simnet.Config{P: p, Ports: pm, Ts: cfg.ts, Tw: cfg.tw})
		_, rs, err := e.Multiply(m, A, B)
		if err != nil {
			t.Fatalf("%v p=%d n=%d: %v", alg, p, n, err)
		}
		if i == 0 {
			a = rs.Elapsed
		} else {
			b = rs.Elapsed
		}
	}
	return a, b
}

func TestMeasuredWithinAnalytic(t *testing.T) {
	const slackHi = 1.05 // measured may not exceed analytic (ragged multi-port slices cost a few %)
	const slackLo = 0.45 // pipelining may undercut the sequential bound
	cases := []struct {
		alg  Alg
		p, n int
	}{
		{Simple, 64, 48},
		{Cannon, 64, 48},
		{Berntsen, 64, 48},
		{DNS, 64, 48},
		{ThreeDiag, 64, 48},
		{AllTrans, 64, 48},
		{ThreeAll, 64, 48},
	}
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, tc := range cases {
			aA, bA, ok := Overhead(tc.alg, float64(tc.n), float64(tc.p), pm)
			if !ok {
				t.Fatalf("%v: analytic model says inapplicable at p=%d n=%d", tc.alg, tc.p, tc.n)
			}
			aM, bM := measured(t, tc.alg, tc.p, tc.n, pm)
			if aM > aA*slackHi+1e-9 || aM < aA*slackLo {
				t.Errorf("%v %v: measured a=%g vs analytic %g", tc.alg, pm, aM, aA)
			}
			if bM > bA*slackHi+1e-9 || bM < bA*slackLo {
				t.Errorf("%v %v: measured b=%g vs analytic %g", tc.alg, pm, bM, bA)
			}
		}
	}
}

// TestMeasuredHJEMultiPort: HJE only appears in Table 2's multi-port
// column; validate it there.
func TestMeasuredHJEMultiPort(t *testing.T) {
	const p, n = 64, 48
	aA, bA, ok := Overhead(HJE, n, p, simnet.MultiPort)
	if !ok {
		t.Fatal("HJE inapplicable")
	}
	aM, bM := measured(t, HJE, p, n, simnet.MultiPort)
	if aM > aA*1.01+1e-9 || aM < aA*0.45 {
		t.Errorf("HJE measured a=%g vs analytic %g", aM, aA)
	}
	if bM > bA*1.05+1e-9 || bM < bA*0.45 {
		t.Errorf("HJE measured b=%g vs analytic %g", bM, bA)
	}
}

// TestMeasuredOrderingMatchesAnalytic: at a representative point the
// *ranking* of algorithms by measured communication time matches the
// analytic ranking — the property the region maps rely on.
func TestMeasuredOrderingMatchesAnalytic(t *testing.T) {
	const p, n = 64, 48
	const ts, tw = 30.0, 1.0
	A := matrix.Random(n, n, 31)
	B := matrix.Random(n, n, 32)
	type res struct {
		alg                Alg
		measured, analytic float64
	}
	var rs []res
	for _, alg := range []Alg{Cannon, Berntsen, ThreeDiag, ThreeAll} {
		e, _ := Lookup(alg)
		m := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: ts, Tw: tw})
		_, st, err := e.Multiply(m, A, B)
		if err != nil {
			t.Fatal(err)
		}
		an, _ := Time(alg, n, p, ts, tw, simnet.OnePort)
		rs = append(rs, res{alg, st.Elapsed, an})
	}
	// The analytic winner (3D All) must also win the measurement.
	bestM, bestA := 0, 0
	for i := range rs {
		if rs[i].measured < rs[bestM].measured {
			bestM = i
		}
		if rs[i].analytic < rs[bestA].analytic {
			bestA = i
		}
	}
	if rs[bestA].alg != ThreeAll {
		t.Errorf("analytic winner = %v, want 3D All", rs[bestA].alg)
	}
	if rs[bestM].alg != rs[bestA].alg {
		t.Errorf("measured winner %v != analytic winner %v", rs[bestM].alg, rs[bestA].alg)
	}
}

// measuredGrid runs the grid 3-D All variant with unit cost vectors.
func measuredGrid(t *testing.T, p, n, qy int, pm simnet.PortModel) (a, b float64) {
	t.Helper()
	A := matrix.Random(n, n, 41)
	B := matrix.Random(n, n, 42)
	for i, cfg := range []struct{ ts, tw float64 }{{1, 0}, {0, 1}} {
		m := simnet.NewMachine(simnet.Config{P: p, Ports: pm, Ts: cfg.ts, Tw: cfg.tw})
		_, rs, err := core.ThreeAllGrid(m, A, B, qy)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			a = rs.Elapsed
		} else {
			b = rs.Elapsed
		}
	}
	return a, b
}

// TestMeasuredFox cross-validates the Fox-Otto-Hey extension baseline.
func TestMeasuredFox(t *testing.T) {
	const p, n = 16, 32
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		aA, bA, ok := Overhead(Fox, n, p, pm)
		if !ok {
			t.Fatal("Fox inapplicable")
		}
		aM, bM := measured(t, Fox, p, n, pm)
		if aM > aA*1.05+1e-9 || aM < aA*0.45 {
			t.Errorf("Fox %v: measured a=%g vs analytic %g", pm, aM, aA)
		}
		if bM > bA*1.05+1e-9 || bM < bA*0.45 {
			t.Errorf("Fox %v: measured b=%g vs analytic %g", pm, bM, bA)
		}
	}
}
