// Package layout describes, declaratively, how each algorithm's
// operand and result matrices are distributed over the machine: which
// processor owns which block of which partition. The paper's alignment
// statements — "the result matrix C is obtained aligned in the same
// manner as the source matrices" for 3DD and 3-D All, versus "the
// result obtained is not aligned in the same manner as A or B" for
// Berntsen — become checkable propositions (Equal) and printable
// ownership maps (Render).
package layout

import (
	"fmt"
	"strings"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// Layout maps every block of a QR x QC block partition of an n x n
// matrix to the physical node owning it.
type Layout struct {
	Name   string
	QR, QC int                  // block-grid shape (rows, cols)
	Owner  func(bi, bj int) int // owning node of block (bi, bj)
}

// Equal reports whether two layouts have the same partition shape and
// the same owner for every block — the paper's notion of two matrices
// being "identically distributed" / "aligned".
func Equal(a, b Layout) bool {
	if a.QR != b.QR || a.QC != b.QC {
		return false
	}
	for i := 0; i < a.QR; i++ {
		for j := 0; j < a.QC; j++ {
			if a.Owner(i, j) != b.Owner(i, j) {
				return false
			}
		}
	}
	return true
}

// Render prints the ownership map, one row per block row (small grids
// only; intended for hmm layout and documentation).
func (l Layout) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d x %d blocks; cell = owning node)\n", l.Name, l.QR, l.QC)
	for i := 0; i < l.QR; i++ {
		for j := 0; j < l.QC; j++ {
			fmt.Fprintf(&sb, "%5d", l.Owner(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Distribution bundles an algorithm's operand and result layouts.
type Distribution struct {
	Algorithm string
	A, B, C   Layout
}

// Aligned reports whether the result layout matches both operand
// layouts — the property that lets multiplications chain with zero
// redistribution.
func (d Distribution) Aligned() bool {
	return Equal(d.A, d.C) && Equal(d.B, d.C)
}

// Block2D returns the natural block distribution of the paper's
// Figure 1: block (i, j) of a q x q partition on mesh processor
// p_{i,j} (Gray-embedded 2-D grid, p = q^2).
func Block2D(name string, p int) Layout {
	g := hypercube.NewGrid2D(p)
	return Layout{
		Name: name, QR: g.Q, QC: g.Q,
		Owner: func(bi, bj int) int { return g.Node(bi, bj) },
	}
}

// Fig8 returns the 3-D All family's operand distribution (Figure 8):
// block (k, f(i,j)) of the cbrt(p) x p^(2/3) partition on processor
// p_{i,j,k}.
func Fig8(name string, p int) Layout {
	g := hypercube.NewGrid3D(p)
	q := g.Q
	return Layout{
		Name: name, QR: q, QC: q * q,
		Owner: func(bi, bj int) int {
			i, j := matrix.FInv(q, bj)
			return g.Node(i, j, bi)
		},
	}
}

// DiagPlane returns the 3DD distribution: block (k, i) of the
// cbrt(p) x cbrt(p) partition on diagonal-plane processor p_{i,i,k}.
func DiagPlane(name string, p int) Layout {
	g := hypercube.NewGrid3D(p)
	return Layout{
		Name: name, QR: g.Q, QC: g.Q,
		Owner: func(bk, bi int) int { return g.Node(bi, bi, bk) },
	}
}

// ZPlane returns the DNS distribution: block (i, j) of the
// cbrt(p) x cbrt(p) partition on z=0 processor p_{i,j,0}.
func ZPlane(name string, p int) Layout {
	g := hypercube.NewGrid3D(p)
	return Layout{
		Name: name, QR: g.Q, QC: g.Q,
		Owner: func(bi, bj int) int { return g.Node(bi, bj, 0) },
	}
}

// DiagColumns returns the 2-D Diagonal distribution of A and C: column
// group j (an n x n/q slab, i.e. a 1 x q block grid) on diagonal
// processor p_{j,j}.
func DiagColumns(name string, p int) Layout {
	g := hypercube.NewGrid2D(p)
	return Layout{
		Name: name, QR: 1, QC: g.Q,
		Owner: func(_, bj int) int { return g.Node(bj, bj) },
	}
}

// DiagRows returns the 2-D Diagonal distribution of B: row group j on
// diagonal processor p_{j,j}.
func DiagRows(name string, p int) Layout {
	g := hypercube.NewGrid2D(p)
	return Layout{
		Name: name, QR: g.Q, QC: 1,
		Owner: func(bi, _ int) int { return g.Node(bi, bi) },
	}
}

// BerntsenOperandA returns Berntsen's A distribution: A's column group
// m, block (i, j) of its q x q sub-partition, on processor (m; i, j) of
// subcube m — as a (q, q*q) grid where column m*q+j is column group m's
// j-th block column.
func BerntsenOperandA(p int) Layout {
	q, node := berntsenGeom(p)
	return Layout{
		Name: "Berntsen A", QR: q, QC: q * q,
		Owner: func(bi, bj int) int {
			sub, j := bj/q, bj%q
			return node(sub, bi, j)
		},
	}
}

// BerntsenResultC returns Berntsen's C distribution: block (i, j) of
// the q x q partition is split into q column groups, group m living on
// processor (m; i, j) — a (q, q*q) grid.
func BerntsenResultC(p int) Layout {
	q, node := berntsenGeom(p)
	return Layout{
		Name: "Berntsen C", QR: q, QC: q * q,
		Owner: func(bi, bj int) int {
			j, sub := bj/q, bj%q
			return node(sub, bi, j)
		},
	}
}

func berntsenGeom(p int) (int, func(sub, i, j int) int) {
	d := hypercube.Log2(p)
	if d%3 != 0 {
		panic(fmt.Sprintf("layout: p=%d not a cube", p))
	}
	dd := d / 3
	q := 1 << dd
	return q, func(sub, i, j int) int {
		return hypercube.Gray(sub)<<(2*dd) | hypercube.Gray(i)<<dd | hypercube.Gray(j)
	}
}

// gridDims is the processor-grid dimension of each algorithm's layout:
// p must be q^d processors for a power of two q.
var gridDims = map[string]int{
	"simple": 2, "cannon": 2, "hje": 2, "fox": 2, "2dd": 2,
	"dns": 3, "3dd": 3, "3ddtrans": 3, "3dall": 3, "alltrans": 3, "berntsen": 3,
}

// For returns the operand/result distributions of the named algorithm
// ("simple", "cannon", "hje", "fox", "dns", "2dd", "3dd", "3ddtrans",
// "alltrans", "3dall", "berntsen") on p processors. It rejects a p the
// algorithm's processor grid cannot take.
func For(alg string, p int) (Distribution, error) {
	if d, ok := gridDims[alg]; ok && (!hypercube.IsPow2(p) || hypercube.Log2(p)%d != 0) {
		return Distribution{}, fmt.Errorf("%s needs p = q^%d processors for a power of two q, got p=%d", alg, d, p)
	}
	switch alg {
	case "simple", "cannon", "fox":
		l := Block2D("block 2-D", p)
		return Distribution{Algorithm: alg, A: l, B: l, C: l}, nil
	case "hje":
		// HJE uses the binary (non-Gray) mesh embedding.
		q := 1 << (hypercube.Log2(p) / 2)
		l := Layout{Name: "block 2-D (binary)", QR: q, QC: q,
			Owner: func(bi, bj int) int { return bi*q + bj }}
		return Distribution{Algorithm: alg, A: l, B: l, C: l}, nil
	case "dns":
		l := ZPlane("z=0 plane", p)
		return Distribution{Algorithm: alg, A: l, B: l, C: l}, nil
	case "2dd":
		return Distribution{
			Algorithm: alg,
			A:         DiagColumns("diag column groups", p),
			B:         DiagRows("diag row groups", p),
			C:         DiagColumns("diag column groups", p),
		}, nil
	case "3dd":
		l := DiagPlane("diagonal plane", p)
		return Distribution{Algorithm: alg, A: l, B: l, C: l}, nil
	case "3ddtrans":
		// The Section 4.1.1 stepping stone: B distributed as A's
		// transpose on the diagonal plane (p_{i,i,k} holds B_{i,k}).
		a := DiagPlane("diagonal plane", p)
		g := hypercube.NewGrid3D(p)
		b := Layout{Name: "diagonal plane (transposed)", QR: g.Q, QC: g.Q,
			Owner: func(bi, bj int) int { return g.Node(bi, bi, bj) }}
		return Distribution{Algorithm: alg, A: a, B: b, C: a}, nil
	case "3dall":
		l := Fig8("Figure 8", p)
		return Distribution{Algorithm: alg, A: l, B: l, C: l}, nil
	case "alltrans":
		a := Fig8("Figure 8", p)
		// B is distributed as A's transpose (Figure 9): block
		// (f(i,j), k) on p_{i,j,k} — a (p^(2/3), cbrt p) grid.
		g := hypercube.NewGrid3D(p)
		q := g.Q
		b := Layout{Name: "Figure 9", QR: q * q, QC: q,
			Owner: func(bi, bj int) int {
				i, j := matrix.FInv(q, bi)
				return g.Node(i, j, bj)
			}}
		return Distribution{Algorithm: alg, A: a, B: b, C: a}, nil
	case "berntsen":
		a := BerntsenOperandA(p)
		// B mirrors A with rows/columns swapped; for alignment
		// purposes what matters is that C differs from A.
		return Distribution{Algorithm: alg, A: a, B: a, C: BerntsenResultC(p)}, nil
	default:
		return Distribution{}, fmt.Errorf("unknown algorithm %q", alg)
	}
}
