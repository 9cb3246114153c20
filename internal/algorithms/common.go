// Package algorithms implements the previously published distributed
// matrix-multiplication algorithms the paper compares against (its
// Section 3): Simple, Cannon, Ho-Johnsson-Edelman, Berntsen, and DNS.
// Each is a node Program: an SPMD program on a simulated hypercube
// (internal/simnet) that starts from the node's blocks of A and B and
// returns its block of C.
//
// Every algorithm here — and the paper's own algorithms in
// internal/core — runs through one driver, Spec.Multiply: the initial
// distribution of A and B that the algorithm's layout.Distribution
// names is materialized for free (the paper assumes the operands
// already distributed), the algorithm's communication and computation
// are charged to the simulated clock, and C is collected for free
// through the same Distribution afterwards and verified by the caller.
package algorithms

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Program is one node's part of a distributed n x n multiplication:
// handed its blocks of A and B under the algorithm's distribution (nil
// where it owns none), the node returns its block of C (nil where the
// distribution gives it none).
type Program func(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense

// Spec is a distributed multiplication as data: the shape rule it needs
// beyond its distribution's block grid (nil: none), where A, B and C
// live on p processors, and the node program.
type Spec struct {
	Shape func(n, p int) error
	Dist  func(p int) (layout.Distribution, error)
	Run   Program
}

// Multiply is the one driver every runner goes through. It checks the
// operands, the shape rule and the distribution, scatters A by the
// distribution's A layout and B by its B layout, runs the node program
// on every node of m, and gathers C by the C layout. On a failed run it
// still returns the run's statistics.
func (s Spec) Multiply(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
	n, err := CheckSquareOperands(A, B)
	if err == nil && s.Shape != nil {
		err = s.Shape(n, m.P())
	}
	if err != nil {
		return nil, simnet.RunStats{}, err
	}
	d, err := s.Dist(m.P())
	if err == nil {
		err = d.Fits(n)
	}
	if err != nil {
		return nil, simnet.RunStats{}, err
	}
	aIn, bIn := d.A.Scatter(A, m.P()), d.B.Scatter(B, m.P())
	out := make([]*matrix.Dense, m.P())
	stats, err := m.RunErr(func(nd *simnet.Node) { out[nd.ID] = s.Run(nd, n, aIn[nd.ID], bIn[nd.ID]) })
	if err != nil {
		return nil, stats, err
	}
	return d.C.Gather(out), stats, nil
}

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
// The algorithm table holds it as the entry's shape rule; harnesses
// that must tell "not applicable" from "unexpectedly failed" ask it
// directly.
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
