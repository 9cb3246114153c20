package algorithms

import (
	"fmt"

	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// CannonTorus is Cannon's algorithm on a native 2-D torus machine
// (simnet.Torus2D) rather than a torus embedded in a hypercube. Ring
// neighbors are physical links, so the shift-multiply-add phase costs
// exactly what it costs on the hypercube — the paper's Section 3.2
// observation, "the second phase of Cannon's algorithm has the same
// performance on 2-D tori and hypercubes". The skew phase differs: a
// rotation by i positions is i wrap-shortest hops on the torus versus
// at most log sqrt(p) hops on the hypercube.
//
// Unlike the hypercube algorithms, the torus does not require a
// power-of-two side: any q x q machine with q | n works. It runs on
// layout.Torus.
func CannonTorus(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
	if m.Cfg.Topology != simnet.Torus2D {
		return nil, simnet.RunStats{}, fmt.Errorf("algorithms: CannonTorus needs a Torus2D machine")
	}
	return Spec{Dist: layout.Torus, Run: cannonTorus}.Multiply(m, A, B)
}

func cannonTorus(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	q := n / a.Rows // every node of the q x q torus holds one block
	i, j := simnet.TorusCoords(nd.ID, q)
	tg := func(step, kind int) uint64 { return 1<<20 | uint64(step)<<4 | uint64(kind) }

	// Skew: A_ij -> p_{i,(j-i) mod q}; B_ij -> p_{(i-j) mod q, j}.
	// As in CannonRun, every sent block is immediately replaced by
	// the incoming one, so the sends transfer ownership.
	if q > 1 {
		nd.SendMOwned(simnet.TorusNode(i, j-i, q), tg(0, 0), a)
		nd.SendMOwned(simnet.TorusNode(i-j, j, q), tg(0, 1), b)
		a = nd.RecvM(simnet.TorusNode(i, j+i, q), tg(0, 0))
		b = nd.RecvM(simnet.TorusNode(i+j, j, q), tg(0, 1))
	}

	c := matrix.New(a.Rows, b.Cols)
	nd.NoteWords(a.Words() + b.Words() + c.Words())
	for t := 0; t < q; t++ {
		nd.MulAdd(c, a, b)
		if t == q-1 {
			break
		}
		nd.SendMOwned(simnet.TorusNode(i, j-1, q), tg(t+1, 0), a)
		nd.SendMOwned(simnet.TorusNode(i-1, j, q), tg(t+1, 1), b)
		a = nd.RecvM(simnet.TorusNode(i, j+1, q), tg(t+1, 0))
		b = nd.RecvM(simnet.TorusNode(i+1, j, q), tg(t+1, 1))
	}
	return c
}
