package core

import (
	"hypermm/internal/algorithms"
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// This file implements the generalization of the 3-D All algorithm that
// the paper sketches at the end of Section 4.2.2: mapping a
// non-uniform 3-D grid onto the hypercube to push the processor limit
// beyond p = n^(3/2), at the price of more replication space.
//
// The correctness proof of Algorithm 5 requires the A column groups
// gathered along x to pair exactly with the B row slabs gathered along
// z, which pins the x and z extents to a common Q; the y extent (the
// number of outer-product planes) is free. We therefore use a
// Q x qy x Q grid with p = Q^2 * qy:
//
//   - qy = Q reproduces the paper's cube (p <= n^(3/2));
//   - shrinking qy grows Q and admits up to p = n^2/2 processors
//     (Q*qy <= n with qy = 2), which is the paper's "can allow us to
//     use upto n^2 processors" remark, reached with the quoted
//     O(n^2 sqrt(p)) space blow-up.
//
// Operands are partitioned into Q row groups x (Q*qy) column groups;
// processor p_{i,j,k} holds A_{k,f(i,j)} and B_{k,f(i,j)} with
// f(i,j) = i*qy + j, exactly as in Figure 8 with the axes reinterpreted.

// ThreeAllGrid runs the 3-D All algorithm on a Q x qy x Q virtual grid
// with p = Q^2*qy, on layout.Fig8Grid. qy = cbrt(p) reproduces
// ThreeAll; smaller qy trades space for applicability up to p ~ n^2/2.
func ThreeAllGrid(m *simnet.Machine, A, B *matrix.Dense, qy int) (*matrix.Dense, simnet.RunStats, error) {
	dist := func(p int) (layout.Distribution, error) { return layout.Fig8Grid(p, qy) }
	return algorithms.Spec{Dist: dist, Run: func(nd *simnet.Node, _ int, a, b *matrix.Dense) *matrix.Dense {
		g, _ := hypercube.NewGridRect(nd.P(), qy) // valid: dist accepted (p, qy)
		return threeAllGridRound(nd, g, a, b, 0)
	}}.Multiply(m, A, B)
}

// threeAllGridRound executes one 3-D All multiplication on a Q x qy x Q
// grid from the view of one node holding aBlk = A_{k,f(i,j)} and
// bBlk = B_{k,f(i,j)}; it returns C_{k,f(i,j)}, distributed exactly
// like the operands, which lets rounds chain with no redistribution.
// tagBase must differ across successive rounds.
func threeAllGridRound(nd *simnet.Node, g hypercube.GridRect, aBlk, bBlk *matrix.Dense, tagBase uint64) *matrix.Dense {
	Q, qy := g.Q, g.Qy
	big, small := aBlk.Rows, aBlk.Cols
	xCh, yCh, zCh := g.Lines(nd.ID)
	yc := collective.On(nd, yCh)

	// Phase 1: all-to-all personalized along y — row group l of our B
	// block goes to y-position l; the received pieces assemble into
	// B_{f(k,j),i} of the (Q*qy x Q) partition (the paper's proof of
	// correctness, Section 4.2.2). Row groups are views of bBlk: the
	// collectives only read the blocks they are handed.
	got := yc.AllToAll(tagBase+1, bBlk.RowGroups(qy))
	bMine := matrix.ConcatCols(got...)

	// Phase 2: all-to-all broadcasts along z and x, fused for
	// multi-port overlap.
	opB := collective.On(nd, zCh).NewAllGather(tagBase+2, bMine)
	opA := collective.On(nd, xCh).NewAllGather(tagBase+3, aBlk)
	collective.Run(opB, opA)
	bAll, aAll := opB.Result(), opA.Result()

	nd.NoteWords(2*Q*big*small + big*big)

	// Compute I_{k,i} = sum_{m<Q} A_{k,f(m,j)} B_{f(m,j),i} (the A
	// slab's global columns and the B slab's global rows coincide
	// because the x and z extents are both Q), and in phase 3
	// reduce-scatter its qy column groups along y.
	return yc.ReduceScatter(tagBase+4, nd.MulSumCols(qy, aAll, bAll))
}
