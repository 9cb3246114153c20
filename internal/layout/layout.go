// Package layout describes, declaratively, how each algorithm's
// operand and result matrices are distributed over the machine: which
// processor owns which block of which partition. A Distribution is what
// a run scatters A and B through and gathers C through, and what
// hmm layout prints, so the printed map is the executed one. The
// paper's alignment statements — "the result matrix C is obtained
// aligned in the same manner as the source matrices" for 3DD and 3-D
// All, versus "the result obtained is not aligned in the same manner as
// A or B" for Berntsen — become checkable propositions (Equal) and
// printable ownership maps (Render).
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

// Scatter cuts M into the layout's blocks, copied out of one batch
// allocation, and hands each to its owner: out[node] is the block node
// owns, nil for a node that owns none.
func (l Layout) Scatter(M *matrix.Dense, p int) []*matrix.Dense {
	blocks := M.GridBlocks(l.QR, l.QC)
	out := make([]*matrix.Dense, p)
	for bi, row := range blocks {
		for bj, b := range row {
			out[l.Owner(bi, bj)] = b
		}
	}
	return out
}

// Gather assembles the matrix whose block (bi, bj) is held by its
// owner, held[Owner(bi, bj)]: the inverse of Scatter.
func (l Layout) Gather(held []*matrix.Dense) *matrix.Dense {
	blocks := make([][]*matrix.Dense, l.QR)
	for bi := range blocks {
		blocks[bi] = make([]*matrix.Dense, l.QC)
		for bj := range blocks[bi] {
			blocks[bi][bj] = held[l.Owner(bi, bj)]
		}
	}
	return matrix.AssembleGrid(blocks)
}

// Distribution bundles an algorithm's operand and result layouts.
type Distribution struct {
	A, B, C Layout
}

// Aligned reports whether the result layout matches both operand
// layouts — the property that lets multiplications chain with zero
// redistribution.
func (d Distribution) Aligned() bool {
	return Equal(d.A, d.C) && Equal(d.B, d.C)
}

// Fits reports whether an n x n matrix splits into the blocks of all
// three layouts.
func (d Distribution) Fits(n int) error {
	for _, l := range []Layout{d.A, d.B, d.C} {
		if n%l.QR != 0 || n%l.QC != 0 {
			return fmt.Errorf("n=%d does not split into the %d x %d blocks of %s", n, l.QR, l.QC, l.Name)
		}
	}
	return nil
}

// same distributes A, B and C alike.
func same(l Layout) Distribution { return Distribution{A: l, B: l, C: l} }

// side returns q for p = q^dims processors, q a power of two.
func side(name string, p, dims int) (int, error) {
	if !hypercube.IsPow2(p) || hypercube.Log2(p)%dims != 0 {
		return 0, fmt.Errorf("%s needs p = q^%d processors for a power of two q, got p=%d", name, dims, p)
	}
	return 1 << (hypercube.Log2(p) / dims), nil
}

// Block2D is the natural block distribution of the paper's Figure 1
// (Simple, Cannon, Fox): block (i, j) of a q x q partition on mesh
// processor p_{i,j} of the Gray-embedded 2-D grid, p = q^2.
func Block2D(p int) (Distribution, error) {
	q, err := side("block 2-D", p, 2)
	if err != nil {
		return Distribution{}, err
	}
	g := hypercube.NewGrid2D(p)
	return same(Layout{Name: "block 2-D", QR: q, QC: q, Owner: g.Node}), nil
}

// Binary2D is HJE's distribution: Figure 1's blocks on the direct
// binary mesh embedding, block (i, j) on the node at address i*q+j.
func Binary2D(p int) (Distribution, error) {
	q, err := side("block 2-D (binary)", p, 2)
	if err != nil {
		return Distribution{}, err
	}
	return rowMajor("block 2-D (binary)", q), nil
}

// Torus is the 2-D torus machine's distribution: block (i, j) of the
// q x q partition on torus node i*q+j (simnet.TorusNode), p = q^2 for
// any q, not only a power of two.
func Torus(p int) (Distribution, error) {
	q := 0
	for (q+1)*(q+1) <= p {
		q++
	}
	if q*q != p || p <= 0 {
		return Distribution{}, fmt.Errorf("2-D torus needs p = q^2 processors, got p=%d", p)
	}
	return rowMajor("block 2-D (torus)", q), nil
}

func rowMajor(name string, q int) Distribution {
	return same(Layout{Name: name, QR: q, QC: q, Owner: func(bi, bj int) int { return bi*q + bj }})
}

// Diagonal2D is the 2-D Diagonal distribution: column group j of A and
// C (an n x n/q slab, a 1 x q block grid) and row group j of B on
// diagonal processor p_{j,j}.
func Diagonal2D(p int) (Distribution, error) {
	q, err := side("diagonal 2-D", p, 2)
	if err != nil {
		return Distribution{}, err
	}
	g := hypercube.NewGrid2D(p)
	a := Layout{Name: "diag column groups", QR: 1, QC: q, Owner: func(_, bj int) int { return g.Node(bj, bj) }}
	b := Layout{Name: "diag row groups", QR: q, QC: 1, Owner: func(bi, _ int) int { return g.Node(bi, bi) }}
	return Distribution{A: a, B: b, C: a}, nil
}

// ZPlane is DNS's distribution: block (i, j) of the cbrt(p) x cbrt(p)
// partition on z=0 processor p_{i,j,0}. It is SupernodeZPlane with one
// processor per supernode.
func ZPlane(p int) (Distribution, error) {
	if _, err := side("z=0 plane", p, 3); err != nil {
		return Distribution{}, err
	}
	return SupernodeZPlane(p, p)
}

// DiagPlane is the 3DD distribution: block (k, i) of the
// cbrt(p) x cbrt(p) partition on diagonal-plane processor p_{i,i,k}. It
// is SupernodeDiagPlane with one processor per supernode.
func DiagPlane(p int) (Distribution, error) {
	if _, err := side("diagonal plane", p, 3); err != nil {
		return Distribution{}, err
	}
	return SupernodeDiagPlane(p, p)
}

// DiagPlaneTrans is the distribution of Section 4.1.1's stepping stone,
// 3DD_Trans: A and C on the diagonal plane as in DiagPlane, B as A's
// transpose (p_{i,i,k} holds B_{i,k}).
func DiagPlaneTrans(p int) (Distribution, error) {
	d, err := DiagPlane(p)
	if err != nil {
		return Distribution{}, err
	}
	g := hypercube.NewGrid3D(p)
	d.B = Layout{Name: "diagonal plane (transposed)", QR: g.Q, QC: g.Q,
		Owner: func(bi, bj int) int { return g.Node(bi, bi, bj) }}
	return d, nil
}

// SupernodeZPlane is DNS+Cannon's distribution on s supernodes: block
// (I, J) of the cbrt(s) x cbrt(s) partition on supernode (I, J, 0),
// spread over its mesh as sub-block (i, j) on mesh processor (i, j) —
// one flat grid of cbrt(s)*sqrt(p/s) blocks per side.
func SupernodeZPlane(p, s int) (Distribution, error) {
	g, err := hypercube.NewSupergrid(p, s)
	if err != nil {
		return Distribution{}, err
	}
	q := g.Qs * g.Qr
	return same(Layout{Name: "z=0 plane", QR: q, QC: q, Owner: func(bi, bj int) int {
		return g.Node(bi/g.Qr, bj/g.Qr, 0, bi%g.Qr, bj%g.Qr)
	}}), nil
}

// SupernodeDiagPlane is 3DD+Cannon's distribution on s supernodes:
// block (K, I) of the cbrt(s) x cbrt(s) partition on diagonal-plane
// supernode (I, I, K), spread over its mesh like SupernodeZPlane's.
func SupernodeDiagPlane(p, s int) (Distribution, error) {
	g, err := hypercube.NewSupergrid(p, s)
	if err != nil {
		return Distribution{}, err
	}
	q := g.Qs * g.Qr
	return same(Layout{Name: "diagonal plane", QR: q, QC: q, Owner: func(bk, bi int) int {
		return g.Node(bi/g.Qr, bi/g.Qr, bk/g.Qr, bk%g.Qr, bi%g.Qr)
	}}), nil
}

// Fig8 is the 3-D All distribution (Figure 8): block (k, f(i,j)) of the
// cbrt(p) x p^(2/3) partition on processor p_{i,j,k}, for A, B and C.
func Fig8(p int) (Distribution, error) {
	q, err := side("Figure 8", p, 3)
	if err != nil {
		return Distribution{}, err
	}
	return Fig8Grid(p, q)
}

// Fig8Grid is Figure 8 on the rectangular Q x qy x Q grid of the 3-D All
// variant (p = Q^2 qy): block (k, f(i,j)) of the Q x Q*qy partition, with
// f(i,j) = i*qy + j, on processor p_{i,j,k}. qy = cbrt(p) is Fig8.
func Fig8Grid(p, qy int) (Distribution, error) {
	g, err := hypercube.NewGridRect(p, qy)
	if err != nil {
		return Distribution{}, err
	}
	return same(Layout{Name: "Figure 8", QR: g.Q, QC: g.Q * qy, Owner: func(bk, f int) int {
		i, j := matrix.FInv(qy, f)
		return g.Node(i, j, bk)
	}}), nil
}

// Fig8Trans is 3D All_Trans's distribution: A and C as in Figure 8, B
// as A's transpose (Figure 9) — block (f(i,j), k) of the
// p^(2/3) x cbrt(p) partition on p_{i,j,k}.
func Fig8Trans(p int) (Distribution, error) {
	d, err := Fig8(p)
	if err != nil {
		return Distribution{}, err
	}
	g := hypercube.NewGrid3D(p)
	d.B = Layout{Name: "Figure 9", QR: g.Q * g.Q, QC: g.Q, Owner: func(f, bk int) int {
		i, j := matrix.FInv(g.Q, f)
		return g.Node(i, j, bk)
	}}
	return d, nil
}

// Berntsen is Berntsen's distribution on cbrt(p) subcubes of
// p^(2/3) processors, node (m; i, j) being mesh position (i, j) of
// subcube m:
//   - A: block (i, j) of column group m's q x q sub-partition on
//     (m; i, j), as a (q, q*q) grid whose column m*q+j is column group
//     m's j-th block column;
//   - B: block (i, j) of row group m's sub-partition on (m; i, j), as a
//     (q*q, q) grid whose row m*q+i is row group m's i-th block row;
//   - C: block (i, j) of the q x q partition split into q column groups,
//     group m on (m; i, j), as a (q, q*q) grid.
func Berntsen(p int) (Distribution, error) {
	q, err := side("Berntsen", p, 3)
	if err != nil {
		return Distribution{}, err
	}
	dd := hypercube.Log2(q)
	node := func(m, i, j int) int {
		return hypercube.Gray(m)<<(2*dd) | hypercube.Gray(i)<<dd | hypercube.Gray(j)
	}
	return Distribution{
		A: Layout{Name: "Berntsen A", QR: q, QC: q * q, Owner: func(bi, bj int) int { return node(bj/q, bi, bj%q) }},
		B: Layout{Name: "Berntsen B", QR: q * q, QC: q, Owner: func(bi, bj int) int { return node(bi/q, bi%q, bj) }},
		C: Layout{Name: "Berntsen C", QR: q, QC: q * q, Owner: func(bi, bj int) int { return node(bj%q, bi, bj/q) }},
	}, nil
}
