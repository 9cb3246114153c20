// Package algorithms implements the previously published distributed
// matrix-multiplication algorithms the paper compares against (its
// Section 3): Simple, Cannon, Ho-Johnsson-Edelman, Berntsen, and DNS.
// Each runs as an SPMD program on a simulated hypercube (internal/simnet)
// and returns the assembled product together with the run statistics.
//
// Every algorithm here — and the paper's own algorithms in
// internal/core — shares the same contract:
//
//	C, stats, err := algorithms.Cannon(m, A, B)
//
// where the initial distribution of A and B is materialized for free
// (the paper assumes the operands already distributed), the algorithm's
// communication and computation are charged to the simulated clock, and
// C is collected for free afterwards and verified by the caller.
package algorithms

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// CheckSquareOperands validates that A and B are n x n with equal n.
func CheckSquareOperands(A, B *matrix.Dense) (int, error) {
	if A.Rows != A.Cols || B.Rows != B.Cols || A.Rows != B.Rows {
		return 0, fmt.Errorf("algorithms: operands must be equal square matrices, got %dx%d and %dx%d",
			A.Rows, A.Cols, B.Rows, B.Cols)
	}
	return A.Rows, nil
}

// CheckGrid2D is the integer shape rule of the 2-D family (Simple,
// Cannon, Fox, 2-D Diagonal): p an even power of two and sqrt(p) | n.
// The runners enforce it through Grid2DFor; harnesses that must tell
// "not applicable" from "unexpectedly failed" ask it directly.
func CheckGrid2D(n, p int) error {
	d := hypercube.Log2(p)
	if d%2 != 0 {
		return fmt.Errorf("algorithms: p=%d is not a perfect square power of two", p)
	}
	if q := 1 << (d / 2); n%q != 0 {
		return fmt.Errorf("algorithms: n=%d not divisible by sqrt(p)=%d", n, q)
	}
	return nil
}

// CheckGrid3D is the integer shape rule of the 3-D family: p a power
// of eight and cbrt(p) | n (DNS, 3-D Diagonal) or, with needQ2,
// cbrt(p)^2 | n (Berntsen, 3D All-Trans, 3D All — the finest partition
// any of the 3-D algorithms uses).
func CheckGrid3D(n, p int, needQ2 bool) error {
	d := hypercube.Log2(p)
	if d%3 != 0 {
		return fmt.Errorf("algorithms: p=%d is not a perfect cube power of two", p)
	}
	q := 1 << (d / 3)
	div := q
	if needQ2 {
		div = q * q
	}
	if n%div != 0 {
		return fmt.Errorf("algorithms: n=%d not divisible by %d (cbrt(p)=%d)", n, div, q)
	}
	return nil
}

// CheckHJE is HJE's integer shape rule: the 2-D rule plus log sqrt(p)
// dividing the block edge n/sqrt(p), which HJE slices into that many
// strips.
func CheckHJE(n, p int) error {
	d := hypercube.Log2(p)
	if d%2 != 0 {
		return fmt.Errorf("algorithms: HJE needs p a perfect square power of two, got %d", p)
	}
	if err := CheckGrid2D(n, p); err != nil {
		return err
	}
	if dd, w := d/2, n>>(d/2); dd > 0 && w%dd != 0 {
		return fmt.Errorf("algorithms: HJE needs log sqrt(p)=%d to divide the block edge n/sqrt(p)=%d (n >= sqrt(p) log sqrt(p))", dd, w)
	}
	return nil
}

// Grid2DFor returns the 2-D embedding for machine m, checking
// CheckGrid2D's shape rule.
func Grid2DFor(m *simnet.Machine, n int) (hypercube.Grid2D, error) {
	if err := CheckGrid2D(n, m.P()); err != nil {
		return hypercube.Grid2D{}, err
	}
	return hypercube.NewGrid2D(m.P()), nil
}

// Grid3DFor returns the 3-D embedding for machine m, checking
// CheckGrid3D's shape rule.
func Grid3DFor(m *simnet.Machine, n int, needQ2 bool) (hypercube.Grid3D, error) {
	if err := CheckGrid3D(n, m.P(), needQ2); err != nil {
		return hypercube.Grid3D{}, err
	}
	return hypercube.NewGrid3D(m.P()), nil
}
