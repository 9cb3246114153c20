package core_test

import (
	"testing"

	"hypermm/internal/algorithms"
	"hypermm/internal/core"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

func TestThreeDiagCannonCorrect(t *testing.T) {
	cases := []struct{ p, s, n int }{
		{32, 8, 16},  // 2x2x2 supernodes of 2x2 meshes
		{32, 8, 32},  // larger blocks
		{128, 8, 32}, // 2x2x2 supernodes of 4x4 meshes
		{512, 8, 32}, // 2x2x2 supernodes of 8x8 meshes
		{8, 8, 8},    // r=1: pure 3DD
	}
	for _, pm := range ports {
		for _, c := range cases {
			A := matrix.Random(c.n, c.n, int64(3*c.p+c.n))
			B := matrix.Random(c.n, c.n, int64(3*c.p+c.n+1))
			C, _, err := core.ThreeDiagCannon(newM(c.p, pm, 10, 1, 0.1), A, B, c.s)
			if err != nil {
				t.Fatalf("p=%d s=%d n=%d %v: %v", c.p, c.s, c.n, pm, err)
			}
			if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
				t.Fatalf("p=%d s=%d n=%d %v: off by %g", c.p, c.s, c.n, pm, d)
			}
		}
	}
}

// TestThreeDiagCannonBeatsDNSCannon verifies the paper's Section 3.5
// claim: the combination of the new 3DD algorithm with Cannon is better
// than the combination of DNS with Cannon, at the same supernode split,
// in both start-ups and transmission (measured with unit cost vectors).
func TestThreeDiagCannonBeatsDNSCannon(t *testing.T) {
	const p, s, n = 128, 8, 32
	A := matrix.Random(n, n, 5)
	B := matrix.Random(n, n, 6)
	measure := func(run func(*simnet.Machine) (simnet.RunStats, error), ts, tw float64) float64 {
		m := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: ts, Tw: tw})
		rs, err := run(m)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Elapsed
	}
	run3dd := func(m *simnet.Machine) (simnet.RunStats, error) {
		_, rs, err := core.ThreeDiagCannon(m, A, B, s)
		return rs, err
	}
	runDNS := func(m *simnet.Machine) (simnet.RunStats, error) {
		_, rs, err := algorithms.DNSCannon(m, A, B, s)
		return rs, err
	}
	a3, aD := measure(run3dd, 1, 0), measure(runDNS, 1, 0)
	b3, bD := measure(run3dd, 0, 1), measure(runDNS, 0, 1)
	if a3 >= aD {
		t.Errorf("3DD+Cannon a=%g not below DNS+Cannon a=%g", a3, aD)
	}
	if b3 >= bD {
		t.Errorf("3DD+Cannon b=%g not below DNS+Cannon b=%g", b3, bD)
	}
}

// TestThreeDiagCannonSpace: like DNS+Cannon, the combination avoids
// 3DD's full cbrt(p)-fold replication.
func TestThreeDiagCannonSpace(t *testing.T) {
	const n = 32
	A := matrix.Random(n, n, 1)
	B := matrix.Random(n, n, 2)
	_, pure, err := ThreeDiag(newM(512, simnet.OnePort, 1, 1, 0), A, B)
	if err != nil {
		t.Fatal(err)
	}
	_, combo, err := core.ThreeDiagCannon(newM(512, simnet.OnePort, 1, 1, 0), A, B, 8)
	if err != nil {
		t.Fatal(err)
	}
	if combo.TotalPeak >= pure.TotalPeak {
		t.Errorf("combination space %d not below pure 3DD %d", combo.TotalPeak, pure.TotalPeak)
	}
}

func TestThreeDiagCannonRejectsBadShapes(t *testing.T) {
	A := matrix.New(16, 16)
	if _, _, err := core.ThreeDiagCannon(newM(32, simnet.OnePort, 1, 1, 0), A, A, 16); err == nil {
		t.Error("accepted non-cube s")
	}
	if _, _, err := core.ThreeDiagCannon(newM(64, simnet.OnePort, 1, 1, 0), A, A, 8); err == nil {
		t.Error("accepted non-square r")
	}
}
