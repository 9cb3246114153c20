package algorithms

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Berntsen is Berntsen's algorithm (Section 3.4): the hypercube is cut
// into cbrt(p) subcubes of p^(2/3) processors each; subcube m computes
// the outer product of the m-th column group of A and the m-th row
// group of B with Cannon's algorithm on its internal
// cbrt(p) x cbrt(p) mesh; and an all-to-all reduction among
// corresponding processors across subcubes sums the cbrt(p) outer
// products into C. Applicable for p <= n^(3/2).
//
// It runs on layout.Berntsen: subcube m occupies the addresses with
// Gray(m) in the top log cbrt(p) bits, and node (m; i, j) starts with
// block (i, j) of A's column group m and of B's row group m. The result
// is left distributed differently from the operands (each processor
// holds a 1/cbrt(p) column slice of a C block) — the paper notes this
// drawback.
func Berntsen(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	dd := hypercube.Log2(nd.P()) / 3
	q := 1 << dd
	i, j := hypercube.GrayRank((nd.ID>>dd)&(q-1)), hypercube.GrayRank(nd.ID&(q-1))

	// Outer product O_sub = A_.sub x B_sub. via Cannon on the subcube:
	// a q x q mesh over the low 2*dd dimensions.
	o := CannonRun(nd, hypercube.Line(nd.ID, 0, dd), hypercube.Line(nd.ID, dd, dd), i, j, q, a, b, 1)

	// All-to-all reduction among the q corresponding processors of
	// the subcubes: node (sub,i,j) keeps column group sub of the
	// summed block C_ij.
	cross := collective.On(nd, hypercube.Line(nd.ID, 2*dd, dd))
	pieces := make([]*matrix.Dense, q)
	for l := 0; l < q; l++ {
		pieces[l] = o.ColGroup(q, l)
	}
	nd.NoteWords(a.Words() + b.Words() + o.Words())
	return cross.ReduceScatter(2, pieces)
}
