package core

import (
	"hypermm/internal/algorithms"
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// ThreeDiagCannon is the 3DD+Cannon combination the paper's Section 3.5
// implies: "the combination of any proposed new algorithm with Cannon's
// algorithm would yield an algorithm better than the combination
// algorithm of the DNS and Cannon". The hypercube is viewed as a
// cbrt(s)^3 grid of supernodes, each a sqrt(r) x sqrt(r) Cannon mesh
// (p = s*r); the 3-D Diagonal algorithm runs at supernode granularity
// (point-to-point lift of B, broadcasts of A along x and B along z,
// all-to-one reduction along y) with every mesh processor carrying its
// own sub-block, and each supernode's block product is computed by
// Cannon's algorithm.
//
// Space drops from 3DD's 2n^2*cbrt(p) to ~3n^2*cbrt(s)/... per the same
// argument as DNS+Cannon, while keeping 3DD's (4/3) log s supernode
// start-up structure — which is what makes it beat DNS+Cannon
// (asserted in tests). It runs on layout.SupernodeDiagPlane:
// diagonal-plane supernode (I,I,K) holds A_{K,I} and B_{K,I} of the
// cbrt(s) x cbrt(s) partition, spread sqrt(r) x sqrt(r) over its mesh.
func ThreeDiagCannon(m *simnet.Machine, A, B *matrix.Dense, s int) (*matrix.Dense, simnet.RunStats, error) {
	dist := func(p int) (layout.Distribution, error) { return layout.SupernodeDiagPlane(p, s) }
	return algorithms.Spec{Dist: dist, Run: func(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
		g, _ := hypercube.NewSupergrid(nd.P(), s) // valid: dist accepted (p, s)
		blk := n / (g.Qs * g.Qr)
		I, J, K, i, j := g.Coords(nd.ID)
		xCh, yCh, zCh, rowCh, colCh := g.Lines(nd.ID)

		// Phase 1: the diagonal plane forwards its B sub-block to the
		// supernode (I,K,K), processor-wise.
		if I == J {
			nd.SendM(g.Node(I, K, K, i, j), 1, b)
		}
		var bRoot *matrix.Dense
		if J == K {
			bRoot = nd.RecvM(g.Node(I, I, J, i, j), 1)
		}

		// Phase 2: broadcast A along x (root supernode x-pos J) and the
		// lifted B along z (root z-pos J), fused.
		opA := collective.On(nd, xCh).NewBcast(2, J, blk, blk, a)
		opB := collective.On(nd, zCh).NewBcast(3, J, blk, blk, bRoot)
		collective.Run(opA, opB)
		a, b = opA.Result(), opB.Result() // sub-blocks of A_{K,J}, B_{J,I}

		nd.NoteWords(3 * blk * blk)

		// Phase 3: supernode block product by Cannon on the mesh.
		c := algorithms.CannonRun(nd, rowCh, colCh, i, j, g.Qr, a, b, 9)

		// Phase 4: reduce along y onto the diagonal plane (y-pos I).
		red := collective.On(nd, yCh).Reduce(6, I, c)
		if I == J {
			return red // sub-block of C_{K,I}
		}
		return nil
	}}.Multiply(m, A, B)
}
