package core

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// ThreeDiag is the 3-D Diagonal algorithm (Section 4.1.2, Algorithm 3)
// on a cbrt(p)^3 virtual grid, applicable for p <= n^3. Both operands
// start identically distributed on the diagonal plane x = y: processor
// p_{i,i,k} holds blocks A_{k,i} and B_{k,i} of the
// cbrt(p) x cbrt(p) block partition.
//
// Phase 1: p_{i,i,k} sends B_{k,i} point-to-point to p_{i,k,k}.
// Phase 2: p_{i,i,k} broadcasts A_{k,i} along x while p_{i,k,k}
// broadcasts the received B block along z (overlapped on multi-port).
// Every p_{i,j,k} then holds A_{k,j} and B_{j,i} and multiplies.
// Phase 3: all-to-one reduction along y onto the diagonal plane:
// C_{k,i} = sum_j A_{k,j} B_{j,i} lands on p_{i,i,k}, aligned exactly
// like the operands.
//
// One-port cost: t_s (4/3) log p + t_w (n^2/p^(2/3)) (4/3) log p — the
// fewest start-ups of any algorithm in the paper, and the only
// algorithm applicable in the region n^2 < p <= n^3 other than DNS,
// which it dominates. It runs on layout.DiagPlane.
func ThreeDiag(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid3D(nd.P())
	blk := n / g.Q
	i, j, k := g.Coords(nd.ID)

	// Phase 1: diagonal plane forwards B_{k,i} to p_{i,k,k}
	// (point-to-point within the y dimensions).
	if i == j {
		nd.SendM(g.Node(i, k, k), 1, b)
	}
	var bRoot *matrix.Dense
	if j == k {
		bRoot = nd.RecvM(g.Node(i, i, j), 1) // B_{j,i}
	}

	// Phase 2: broadcast A_{k,j} along x (root: diagonal node at
	// x-position j) and B_{j,i} along z (root: z-position j).
	opA := collective.On(nd, g.XChain(j, k)).NewBcast(2, j, blk, blk, a)
	opB := collective.On(nd, g.ZChain(i, j)).NewBcast(3, j, blk, blk, bRoot)
	collective.Run(opA, opB)
	a, b = opA.Result(), opB.Result() // A_{k,j}, B_{j,i}

	nd.NoteWords(2 * a.Words())

	// Compute I_{k,i} = A_{k,j} x B_{j,i} and reduce along y onto
	// the diagonal plane (y-position i).
	i3 := nd.Mul(a, b)
	c := collective.On(nd, g.YChain(i, k)).Reduce(4, i, i3)
	if i == j {
		return c // C_{k,i}
	}
	return nil
}
