package algorithms

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// DNS is the generalized Dekel-Nassimi-Sahni algorithm (Section 3.5) on
// a cbrt(p)^3 virtual grid, usable for p <= n^3. A and B start
// block-partitioned on the z=0 plane. Phase 1 lifts A_ij to p_{i,j,j}
// and B_ij to p_{i,j,i} (point-to-point along z; the two transfers both
// use z dimensions, so they do not overlap even on a multi-port machine
// — as the paper observes). Phase 2 broadcasts A along y and B along x
// (overlapping on multi-port). Every processor multiplies A_ik * B_kj,
// and phase 3 reduces along z back to the z=0 plane. It runs on
// layout.ZPlane.
func DNS(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid3D(nd.P())
	blk := n / g.Q
	i, j, k := g.Coords(nd.ID)

	// Phase 1: point-to-point lifts along z.
	if k == 0 {
		nd.SendM(g.Node(i, j, j), 1, a)
		nd.SendM(g.Node(i, j, i), 2, b)
	}
	var aRoot, bRoot *matrix.Dense
	if k == j {
		aRoot = nd.RecvM(g.Node(i, j, 0), 1)
	}
	if k == i {
		bRoot = nd.RecvM(g.Node(i, j, 0), 2)
	}

	// Phase 2: A broadcast along y from p_{i,k,k}; B along x from
	// p_{k,j,k}. Fused so a multi-port machine overlaps them.
	opA := collective.On(nd, g.YChain(i, k)).NewBcast(3, k, blk, blk, aRoot)
	opB := collective.On(nd, g.XChain(j, k)).NewBcast(4, k, blk, blk, bRoot)
	collective.Run(opA, opB)
	a, b = opA.Result(), opB.Result() // A_{ik}, B_{kj}

	nd.NoteWords(2 * a.Words())

	// Multiply and phase 3: reduce along z to the z=0 plane.
	i3 := nd.Mul(a, b)
	c := collective.On(nd, g.ZChain(i, j)).Reduce(5, 0, i3)
	if k == 0 {
		return c
	}
	return nil
}
