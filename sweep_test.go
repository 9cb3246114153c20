package hypermm

import (
	"fmt"
	"testing"
)

// TestCorrectnessSweep runs every algorithm across a grid of machine
// sizes, matrix sizes, port models and operand seeds, verifying the
// product against the serial reference each time. This is the broad
// net; the per-package tests pin the sharp edges.
func TestCorrectnessSweep(t *testing.T) {
	type shape struct{ p, n int }
	squares := []shape{{4, 8}, {16, 32}, {64, 48}}
	cubes := []shape{{8, 16}, {64, 32}}
	if testing.Short() {
		squares = squares[:2]
		cubes = cubes[:1]
	}
	shapesFor := func(alg Algorithm) []shape {
		switch alg {
		case Simple, Cannon, HJE, TwoDiag, Fox:
			return squares
		default:
			return cubes
		}
	}
	for _, alg := range Algorithms {
		for _, pm := range []PortModel{OnePort, MultiPort} {
			for _, sh := range shapesFor(alg) {
				for seed := int64(0); seed < 3; seed++ {
					name := fmt.Sprintf("%s/%v/p=%d/n=%d/seed=%d", alg.Name(), pm, sh.p, sh.n, seed)
					t.Run(name, func(t *testing.T) {
						A := RandomMatrix(sh.n, sh.n, seed*31+1)
						B := RandomMatrix(sh.n, sh.n, seed*31+2)
						res, err := Run(alg, Config{P: sh.p, Ports: pm, Ts: 25, Tw: 2, Tc: 0.25}, A, B)
						if err != nil {
							t.Fatal(err)
						}
						if err := Verify(A, B, res.C, 1e-8); err != nil {
							t.Fatal(err)
						}
						// Basic stat sanity on every configuration.
						if sh.p > 1 && (res.Elapsed <= 0 || res.Comm.Words <= 0) {
							t.Errorf("implausible run stats: %+v", res.Comm)
						}
					})
				}
			}
		}
	}
}

// TestSpecialOperandsSweep: structured operands with exact expected
// results (identity, zero, permutation-ish) across the algorithm set.
func TestSpecialOperandsSweep(t *testing.T) {
	cfgSq := Config{P: 16, Ports: OnePort, Ts: 5, Tw: 1, Tc: 0}
	cfgCu := Config{P: 8, Ports: OnePort, Ts: 5, Tw: 1, Tc: 0}
	for _, alg := range Algorithms {
		cfg := cfgSq
		switch alg {
		case Berntsen, DNS, ThreeDiag, AllTrans, ThreeAll:
			cfg = cfgCu
		}
		n := 16
		t.Run(alg.Name(), func(t *testing.T) {
			A := RandomMatrix(n, n, 5)
			// A * I == A exactly (no rounding: one term per entry).
			I := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				I.Set(i, i, 1)
			}
			res, err := Run(alg, cfg, A, I)
			if err != nil {
				t.Fatal(err)
			}
			if MaxAbsDiff(res.C, A) > 1e-12 {
				t.Error("A*I != A")
			}
			// A * 0 == 0 exactly.
			res, err = Run(alg, cfg, A, NewMatrix(n, n))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.C.Data {
				if v != 0 {
					t.Fatal("A*0 != 0")
					break
				}
			}
		})
	}
}

// TestTimingIndependentOfValues: the simulated clock is a function of
// shapes and schedules only — operand values must not change it.
func TestTimingIndependentOfValues(t *testing.T) {
	cfg := Config{P: 64, Ports: MultiPort, Ts: 37, Tw: 3, Tc: 0.5}
	var first float64
	for seed := int64(1); seed <= 3; seed++ {
		A := RandomMatrix(32, 32, seed)
		B := RandomMatrix(32, 32, seed+100)
		res, err := Run(ThreeAll, cfg, A, B)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			first = res.Elapsed
		} else if res.Elapsed != first {
			t.Fatalf("seed %d: elapsed %g != %g", seed, res.Elapsed, first)
		}
	}
}

// TestNumericalToleranceScale: distributed reduction orders differ from
// the serial product's, so agreement is within a scale-aware tolerance,
// not bitwise. Exercise operands spanning 12 orders of magnitude.
func TestNumericalToleranceScale(t *testing.T) {
	const n, p = 16, 8
	A := RandomMatrix(n, n, 1)
	B := RandomMatrix(n, n, 2)
	for i := range A.Data {
		if i%3 == 0 {
			A.Data[i] *= 1e6
		}
		if i%7 == 0 {
			B.Data[i] *= 1e-6
		}
	}
	res, err := Run(ThreeAll, Config{P: p, Ports: OnePort, Ts: 1, Tw: 1}, A, B)
	if err != nil {
		t.Fatal(err)
	}
	// Scale-aware check: |diff| <= eps * n * max|A| * max|B|.
	var maxA, maxB float64
	for _, v := range A.Data {
		if v < 0 {
			v = -v
		}
		if v > maxA {
			maxA = v
		}
	}
	for _, v := range B.Data {
		if v < 0 {
			v = -v
		}
		if v > maxB {
			maxB = v
		}
	}
	tol := 1e-14 * float64(n) * maxA * maxB
	if err := Verify(A, B, res.C, tol); err != nil {
		t.Error(err)
	}
}
