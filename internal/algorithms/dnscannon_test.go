package algorithms_test

import (
	"testing"

	"hypermm/internal/algorithms"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

func TestDNSCannonCorrect(t *testing.T) {
	cases := []struct{ p, s, n int }{
		{32, 8, 16},  // 2x2x2 supernodes of 2x2 meshes
		{32, 8, 32},  // larger blocks
		{128, 8, 32}, // 2x2x2 supernodes of 4x4 meshes
		{512, 8, 32}, // 2x2x2 supernodes of 8x8 meshes
		{8, 8, 8},    // degenerate r=1: pure DNS
		{4, 1, 8},    // degenerate s=1: pure Cannon
	}
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range cases {
			A := matrix.Random(c.n, c.n, int64(c.p+c.n))
			B := matrix.Random(c.n, c.n, int64(c.p+c.n+1))
			m := newM(c.p, pm)
			C, stats, err := algorithms.DNSCannon(m, A, B, c.s)
			if err != nil {
				t.Fatalf("p=%d s=%d n=%d %v: %v", c.p, c.s, c.n, pm, err)
			}
			if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
				t.Fatalf("p=%d s=%d n=%d %v: off by %g", c.p, c.s, c.n, pm, d)
			}
			if c.p > 1 && stats.Elapsed <= 0 {
				t.Error("no time elapsed")
			}
		}
	}
}

// TestDNSCannonSavesSpace: the point of the combination (Section 3.5)
// is space: aggregate storage scales with cbrt(s), not cbrt(p).
func TestDNSCannonSavesSpace(t *testing.T) {
	const n = 32
	A := matrix.Random(n, n, 1)
	B := matrix.Random(n, n, 2)
	_, dns, err := DNS(newM(512, simnet.OnePort), A, B)
	if err != nil {
		t.Fatal(err)
	}
	_, combo, err := algorithms.DNSCannon(newM(512, simnet.OnePort), A, B, 8)
	if err != nil {
		t.Fatal(err)
	}
	if combo.TotalPeak >= dns.TotalPeak {
		t.Errorf("combination space %d not below DNS %d", combo.TotalPeak, dns.TotalPeak)
	}
}

// TestDNSCannonDominatedBy3DAll supports the paper's argument for not
// presenting the combination: the new algorithms beat it. Compare
// measured communication times at a point where both run.
func TestDNSCannonDominatedBy3DAll(t *testing.T) {
	const p, n = 512, 64
	A := matrix.Random(n, n, 3)
	B := matrix.Random(n, n, 4)
	mc := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 150, Tw: 3})
	_, combo, err := algorithms.DNSCannon(mc, A, B, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = combo
	// 3D All measured on the same machine/problem (via its package
	// would be an import cycle; compare against DNS and Cannon instead,
	// both of which the combination should sit between).
	mdns := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 150, Tw: 3})
	_, dns, err := DNS(mdns, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if combo.Elapsed >= dns.Elapsed {
		t.Errorf("combination (%g) not below plain DNS (%g)", combo.Elapsed, dns.Elapsed)
	}
}

func TestDNSCannonRejectsBadShapes(t *testing.T) {
	A := matrix.New(16, 16)
	if _, _, err := algorithms.DNSCannon(newM(32, simnet.OnePort), A, A, 16); err == nil {
		t.Error("accepted non-cube s")
	}
	if _, _, err := algorithms.DNSCannon(newM(64, simnet.OnePort), A, A, 8); err == nil {
		t.Error("accepted r not a square (64/8=8)")
	}
	if _, _, err := algorithms.DNSCannon(newM(32, simnet.OnePort), A, A, 5); err == nil {
		t.Error("accepted s not dividing p")
	}
	if _, _, err := algorithms.DNSCannon(newM(32, simnet.OnePort), matrix.New(6, 6), matrix.New(6, 6), 8); err == nil {
		t.Error("accepted bad divisibility")
	}
}
