package core

import (
	"hypermm/internal/algorithms"
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// ThreeDiagTrans is the intermediate algorithm of Section 4.1.1: the
// 2-D Diagonal scheme extended to a 3-D mesh, *before* the paper fixes
// its distribution mismatch. Matrices are distributed along z with
// processor p_{i,i,k} holding A_{k,i} and B_{i,k} — i.e. B transposed
// relative to A, which is the variant's drawback ("the initial
// distribution assumed is not the same for matrices A and B"); the
// 3-D Diagonal algorithm (ThreeDiag) removes it at no extra cost.
//
// Phases, per the paper's prose: the one-to-all personalized broadcast
// of the 2-D scheme is replaced by point-to-point communication of
// B_{i,k} from p_{i,i,k} to p_{k,i,k}, followed by a one-to-all
// broadcast of B_{i,k} along z to p_{k,i,*}; A broadcasts along x as
// in the 2-D scheme; the reduction runs along y onto the diagonal. It
// runs on layout.DiagPlaneTrans, the one distribution hmm layout prints
// outside the algorithm table.
func ThreeDiagTrans(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
	return algorithms.Spec{Dist: layout.DiagPlaneTrans, Run: threeDiagTrans}.Multiply(m, A, B)
}

func threeDiagTrans(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid3D(nd.P())
	blk := n / g.Q
	i, j, k := g.Coords(nd.ID)

	// Phase 1: point-to-point along x: B_{i,k} from p_{i,i,k} to
	// p_{k,i,k}.
	if i == j {
		nd.SendM(g.Node(k, i, k), 1, b)
	}
	var bRoot *matrix.Dense
	if i == k {
		// p_{k,i,k} in the paper's naming: our x == z here; we
		// receive B_{j,i} from p_{j,j,i} (the diagonal node whose
		// y matches ours).
		bRoot = nd.RecvM(g.Node(j, j, i), 1)
	}

	// Phase 2: broadcast A_{k,j} along x (root x-pos j, a diagonal
	// node) and the lifted B along z (root z-pos i... the chain
	// p_{i,j,*} is rooted at the node whose z equals its x).
	opA := collective.On(nd, g.XChain(j, k)).NewBcast(2, j, blk, blk, a)
	opB := collective.On(nd, g.ZChain(i, j)).NewBcast(3, i, blk, blk, bRoot)
	collective.Run(opA, opB)
	a, b = opA.Result(), opB.Result() // A_{k,j}, B_{j,i}

	nd.NoteWords(2 * a.Words())

	// Compute and reduce along y onto the diagonal plane.
	i3 := nd.Mul(a, b)
	c := collective.On(nd, g.YChain(i, k)).Reduce(4, i, i3)
	if i == j {
		return c // C_{k,i}, aligned like A (not like B)
	}
	return nil
}
