package core_test

import (
	"testing"

	"hypermm/internal/core"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

func runGrid(t *testing.T, p, n, qy int, pm simnet.PortModel) simnet.RunStats {
	t.Helper()
	A := matrix.Random(n, n, int64(7*p+n+qy))
	B := matrix.Random(n, n, int64(7*p+n+qy+1))
	C, stats, err := core.ThreeAllGrid(newM(p, pm, 10, 1, 0.1), A, B, qy)
	if err != nil {
		t.Fatalf("p=%d n=%d qy=%d %v: %v", p, n, qy, pm, err)
	}
	if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
		t.Fatalf("p=%d n=%d qy=%d %v: off by %g", p, n, qy, pm, d)
	}
	return stats
}

func TestThreeAllGridMatchesCube(t *testing.T) {
	// qy = cbrt(p) is exactly the paper's cube algorithm; times agree
	// with ThreeAll.
	A := matrix.Random(32, 32, 1)
	B := matrix.Random(32, 32, 2)
	cube, s1, err := ThreeAll(newM(64, simnet.OnePort, 10, 1, 0), A, B)
	if err != nil {
		t.Fatal(err)
	}
	rect, s2, err := core.ThreeAllGrid(newM(64, simnet.OnePort, 10, 1, 0), A, B, 4)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(cube, rect) > 1e-9 {
		t.Error("cube and grid results differ")
	}
	if s1.Elapsed != s2.Elapsed {
		t.Errorf("cube elapsed %g != grid elapsed %g", s1.Elapsed, s2.Elapsed)
	}
}

func TestThreeAllGridShapes(t *testing.T) {
	cases := []struct{ p, n, qy int }{
		{8, 8, 2},    // cube
		{8, 16, 2},   // cube, larger blocks
		{32, 16, 2},  // rectangular: 4 x 2 x 4
		{32, 32, 2},  // rectangular, larger n
		{16, 16, 4},  // flat: 2 x 4 x 2 (more planes than Q)
		{128, 32, 8}, // 4 x 8 x 4
		{128, 32, 2}, // 8 x 2 x 8
		{256, 64, 4}, // 8 x 4 x 8
	}
	for _, pm := range ports {
		for _, c := range cases {
			runGrid(t, c.p, c.n, c.qy, pm)
		}
	}
}

// TestThreeAllGridExtendsApplicability: the paper's remark — the
// rectangular grid runs where the cube cannot. p = 128 exceeds
// n^(3/2) = 64 for n = 16, yet the 8 x 2 x 8 grid handles it.
func TestThreeAllGridExtendsApplicability(t *testing.T) {
	A := matrix.Random(16, 16, 3)
	B := matrix.Random(16, 16, 4)
	C, _, err := core.ThreeAllGrid(newM(128, simnet.OnePort, 10, 1, 0), A, B, 2)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(C, matrix.Mul(A, B)) > 1e-9 {
		t.Error("wrong product beyond the cube's applicability limit")
	}
}

// TestThreeAllGridSpaceTrade: the paper warns the rectangular variant
// pays for its extended applicability with replication space growing
// like n^2 sqrt(p). At qy = 2 the aggregate is 2n^2(Q+1) words with
// Q = sqrt(p/2); check the measured values against that closed form.
func TestThreeAllGridSpaceTrade(t *testing.T) {
	const n = 64
	A := matrix.Random(n, n, 5)
	B := matrix.Random(n, n, 6)
	prev := 0
	for _, c := range []struct{ p, Q int }{{8, 2}, {32, 4}, {128, 8}} {
		_, stats, err := core.ThreeAllGrid(newM(c.p, simnet.OnePort, 1, 1, 0), A, B, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := 2 * n * n * (c.Q + 1)
		if stats.TotalPeak != want {
			t.Errorf("p=%d: aggregate space %d, want 2n^2(Q+1) = %d", c.p, stats.TotalPeak, want)
		}
		if stats.TotalPeak <= prev {
			t.Errorf("p=%d: space %d did not grow beyond %d", c.p, stats.TotalPeak, prev)
		}
		prev = stats.TotalPeak
	}
}

func TestThreeAllGridRejectsBadShapes(t *testing.T) {
	A := matrix.New(16, 16)
	if _, _, err := core.ThreeAllGrid(newM(16, simnet.OnePort, 1, 1, 0), A, A, 2); err == nil {
		t.Error("accepted p/qy not a square (16/2 = 8)")
	}
	if _, _, err := core.ThreeAllGrid(newM(16, simnet.OnePort, 1, 1, 0), A, A, 3); err == nil {
		t.Error("accepted non-power-of-two qy")
	}
	if _, _, err := core.ThreeAllGrid(newM(32, simnet.OnePort, 1, 1, 0), matrix.New(12, 12), matrix.New(12, 12), 2); err == nil {
		t.Error("accepted n not divisible by Q*qy")
	}
}
