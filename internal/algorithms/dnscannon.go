package algorithms

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// DNSCannon is the combination algorithm sketched at the end of the
// paper's Section 3.5: the hypercube is viewed as a
// cbrt(s) x cbrt(s) x cbrt(s) grid of *supernodes*, each supernode
// being a sqrt(r) x sqrt(r) Cannon mesh (p = s*r processors). The DNS
// phases — lift A and B along z, broadcast along y and x, reduce along
// z — run at supernode granularity with every mesh processor handling
// its own sub-block, and the per-supernode block product is computed
// by Cannon's algorithm, which is what saves DNS's factor-cbrt(p)
// space blow-up.
//
// The paper does not present this algorithm because 3DD and 3D All
// dominate it; it is implemented here so the dominated baseline is
// reproducible too. s must be a power of eight, r a power of four.
//
// Address layout: hypercube.Supergrid, so all DNS-phase chains and all
// Cannon rings are subcubes. It runs on layout.SupernodeZPlane:
// supernode (I,J,0) holds blocks A_IJ and B_IJ of the
// cbrt(s) x cbrt(s) partition, themselves distributed
// sqrt(r) x sqrt(r) over the supernode's mesh.
func DNSCannon(m *simnet.Machine, A, B *matrix.Dense, s int) (*matrix.Dense, simnet.RunStats, error) {
	dist := func(p int) (layout.Distribution, error) { return layout.SupernodeZPlane(p, s) }
	return Spec{Dist: dist, Run: func(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
		g, _ := hypercube.NewSupergrid(nd.P(), s) // valid: dist accepted (p, s)
		blk := n / (g.Qs * g.Qr)                  // sub-block edge per mesh processor
		I, J, K, i, j := g.Coords(nd.ID)
		xCh, yCh, zCh, rowCh, colCh := g.Lines(nd.ID)

		// Phase 1: lift the sub-blocks along z, supernode-wise.
		if K == 0 {
			nd.SendM(g.Node(I, J, J, i, j), 1, a)
			nd.SendM(g.Node(I, J, I, i, j), 2, b)
		}
		var aRoot, bRoot *matrix.Dense
		if K == J {
			aRoot = nd.RecvM(g.Node(I, J, 0, i, j), 1)
		}
		if K == I {
			bRoot = nd.RecvM(g.Node(I, J, 0, i, j), 2)
		}

		// Phase 2: broadcast A along y (root supernode J=K) and B along
		// x (root supernode I=K), fused for multi-port overlap.
		opA := collective.On(nd, yCh).NewBcast(3, K, blk, blk, aRoot)
		opB := collective.On(nd, xCh).NewBcast(4, K, blk, blk, bRoot)
		collective.Run(opA, opB)
		a, b = opA.Result(), opB.Result() // sub-blocks of A_{IK}, B_{KJ}

		nd.NoteWords(3 * blk * blk)

		// Phase 3: per-supernode block product by Cannon on the mesh.
		c := CannonRun(nd, rowCh, colCh, i, j, g.Qr, a, b, 5)

		// Phase 4: reduce along z back to the K=0 plane.
		red := collective.On(nd, zCh).Reduce(6, 0, c)
		if K == 0 {
			return red
		}
		return nil
	}}.Multiply(m, A, B)
}
