package algorithms

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Simple is the paper's Algorithm Simple (Section 3.1): on a
// sqrt(p) x sqrt(p) virtual mesh with A and B block-partitioned, every
// mesh row all-to-all broadcasts its A blocks and every mesh column its
// B blocks, after which each processor owns a full block row of A and
// block column of B and multiplies locally.
//
// Communication: two all-to-all broadcasts of n^2/p-word blocks among
// sqrt(p) processors. On a multi-port hypercube the two phases overlap
// (they use disjoint grid dimensions); on a one-port machine they
// serialize — both cases fall out of running the phases fused.
// The price is space: each node ends up holding 2 n^2/sqrt(p) words.
// It runs on layout.Block2D: p_{i,j} starts with A_ij and B_ij.
func Simple(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid2D(nd.P())
	q := g.Q
	i, j := g.Coords(nd.ID)
	rowC := collective.On(nd, g.RowChain(i))
	colC := collective.On(nd, g.ColChain(j))

	// Phase 1+2 fused: row-wise all-gather of A, column-wise
	// all-gather of B.
	agA := rowC.NewAllGather(1, a)
	agB := colC.NewAllGather(2, b)
	collective.Run(agA, agB)
	arow, bcol := agA.Result(), agB.Result()

	blk := n / q
	held := 0
	for k := 0; k < q; k++ {
		held += arow[k].Words() + bcol[k].Words()
	}
	nd.NoteWords(held + blk*blk)

	// Local compute: C_ij = sum_k A_ik * B_kj.
	c := matrix.New(blk, blk)
	for k := 0; k < q; k++ {
		nd.MulAdd(c, arow[k], bcol[k])
	}
	return c
}
