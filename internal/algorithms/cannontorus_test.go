package algorithms_test

import (
	"testing"

	"hypermm/internal/algorithms"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

func torusM(p int, pm simnet.PortModel, ts, tw float64) *simnet.Machine {
	return simnet.NewMachine(simnet.Config{P: p, Ports: pm, Ts: ts, Tw: tw, Topology: simnet.Torus2D})
}

func TestCannonTorusCorrect(t *testing.T) {
	cases := []struct{ p, n int }{
		{4, 8}, {16, 16}, {64, 32},
		{9, 9}, {25, 20}, // non-power-of-two tori, impossible on the hypercube
	}
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range cases {
			A := matrix.Random(c.n, c.n, int64(c.p))
			B := matrix.Random(c.n, c.n, int64(c.p+1))
			C, _, err := algorithms.CannonTorus(torusM(c.p, pm, 10, 1), A, B)
			if err != nil {
				t.Fatalf("p=%d n=%d %v: %v", c.p, c.n, pm, err)
			}
			if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
				t.Fatalf("p=%d n=%d %v: off by %g", c.p, c.n, pm, d)
			}
		}
	}
}

func TestCannonTorusRejectsHypercubeMachine(t *testing.T) {
	A := matrix.New(8, 8)
	if _, _, err := algorithms.CannonTorus(newM(16, simnet.OnePort), A, A); err == nil {
		t.Error("accepted a hypercube machine")
	}
	if _, _, err := algorithms.CannonTorus(torusM(16, simnet.OnePort, 1, 1), matrix.New(6, 6), matrix.New(6, 6)); err == nil {
		t.Error("accepted n not divisible by q")
	}
}

// TestShiftPhaseEqualAcrossTopologies reproduces the paper's Section
// 3.2 sentence: Cannon's shift-multiply-add phase costs the same on a
// 2-D torus as on a hypercube (rings are physical neighbors on both).
// Measured: total time minus the skew phase must agree exactly. We
// isolate the shift phase by choosing operands already aligned (i=0 or
// j=0 skews are free only for the top row/column; instead compare total
// times and subtract the analytically known skew terms).
func TestShiftPhaseEqualAcrossTopologies(t *testing.T) {
	const p, n = 16, 16
	const ts, tw = 5.0, 1.0
	q := 4
	blkWords := float64(n * n / p)
	A := matrix.Random(n, n, 1)
	B := matrix.Random(n, n, 2)

	_, hyper, err := Cannon(simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: ts, Tw: tw}), A, B)
	if err != nil {
		t.Fatal(err)
	}
	_, torus, err := algorithms.CannonTorus(torusM(p, simnet.OnePort, ts, tw), A, B)
	if err != nil {
		t.Fatal(err)
	}

	// Shift phase (identical on both): 2(q-1) transfers of blk words.
	shift := 2 * float64(q-1) * (ts + tw*blkWords)
	// Skew worst cases: hypercube <= 2 log q hops; torus <= 2*(q/2).
	skewHyper := 2 * 2 * (ts + tw*blkWords)            // 2 transfers x log q hops
	skewTorus := 2 * float64(q/2) * (ts + tw*blkWords) // wrap-shortest

	if got, want := hyper.Elapsed, shift+skewHyper; got != want {
		t.Errorf("hypercube Cannon elapsed = %g, want shift+skew = %g", got, want)
	}
	if got, want := torus.Elapsed, shift+skewTorus; got != want {
		t.Errorf("torus Cannon elapsed = %g, want shift+skew = %g", got, want)
	}
	// The difference is exactly the skew difference: the shift phase is
	// topology-independent, as the paper states.
	if (torus.Elapsed - hyper.Elapsed) != (skewTorus - skewHyper) {
		t.Errorf("shift phases differ across topologies: torus %g vs hypercube %g",
			torus.Elapsed-skewTorus, hyper.Elapsed-skewHyper)
	}
}

func TestTorusMultiPortOverlap(t *testing.T) {
	// The A and B shifts use x and y links; a multi-port torus node
	// overlaps them, halving the shift phase like the hypercube.
	const p, n = 16, 16
	A := matrix.Random(n, n, 3)
	B := matrix.Random(n, n, 4)
	_, one, err := algorithms.CannonTorus(torusM(p, simnet.OnePort, 0, 1), A, B)
	if err != nil {
		t.Fatal(err)
	}
	_, multi, err := algorithms.CannonTorus(torusM(p, simnet.MultiPort, 0, 1), A, B)
	if err != nil {
		t.Fatal(err)
	}
	// q=4, 16-word blocks: one-port = skew 2x2 hops x 16 + shift
	// 2x3x16 = 64+96 = 160; multi-port = skew overlapped and pipelined
	// (16) + shift overlapped (48) = 64.
	if one.Elapsed != 160 {
		t.Errorf("one-port torus elapsed = %g, want 160", one.Elapsed)
	}
	if multi.Elapsed != 64 {
		t.Errorf("multi-port torus elapsed = %g, want 64", multi.Elapsed)
	}
}
