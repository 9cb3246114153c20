package core

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// TwoDiag is the 2-D Diagonal algorithm (Section 4.1.1, Algorithm 2) on
// a q x q mesh with p = q^2. The diagonal processor p_{j,j} initially
// holds the j-th column group of A and the j-th row group of B; the
// processor column p_{*,j} computes their outer product.
//
// Phase 1: p_{j,j} scatters its B rows by column groups down processor
// column j (one-to-all personalized broadcast) and broadcasts its A
// column group (one-to-all broadcast); on a multi-port machine the two
// overlap. Each p_{k,j} then computes the k-th column group of the
// outer product. Phase 2 reduces along processor rows onto the
// diagonal, leaving C distributed exactly like A — column group k on
// p_{k,k}. It runs on layout.Diagonal2D.
func TwoDiag(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid2D(nd.P())
	q := g.Q
	i, j := g.Coords(nd.ID)
	col := collective.On(nd, g.ColChain(j))

	// Phase 1 (down column j, root = diagonal position j):
	// scatter B_{j,*} by column groups and broadcast A_{*,j}.
	var bPieces []*matrix.Dense
	if i == j {
		bPieces = make([]*matrix.Dense, q)
		for k := 0; k < q; k++ {
			bPieces[k] = b.ColGroup(q, k) // B_{j,k}: n/q x n/q
		}
	}
	scat := col.NewScatter(1, j, n/q, n/q, bPieces)
	bc := col.NewBcast(2, j, n, n/q, a)
	collective.Run(scat, bc)
	bPiece, aCol := scat.Result(), bc.Result()

	nd.NoteWords(aCol.Words() + bPiece.Words() + aCol.Words())

	// Local outer-product slice: column group i of A_{*,j} B_{j,*}.
	islice := nd.Mul(aCol, bPiece) // n x n/q

	// Phase 2: reduce along row i onto the diagonal p_{i,i}.
	row := collective.On(nd, g.RowChain(i))
	c := row.Reduce(3, i, islice)
	if i == j {
		return c // column group i of C
	}
	return nil
}
