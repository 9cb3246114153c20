package algorithms

import (
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Cannon is Cannon's algorithm (Section 3.2) on a sqrt(p) x sqrt(p)
// virtual mesh embedded in the hypercube.
//
// Phase 1 skews the operands into alignment: A_ij moves to
// p_{i,(j-i) mod q} and B_ij to p_{(i-j) mod q, j}, so p_{i,j} holds
// A_{i,i+j} and B_{i+j,j} (the paper's prose states the opposite shift
// direction, which does not align the inner indices; we implement the
// standard correct skew, which has identical cost). Each skew transfer
// is routed e-cube, at most log sqrt(p) hops. Phase 2 is sqrt(p)
// shift-multiply-add steps around the Gray-code rings. Cannon's
// advantage is constant storage: three blocks per node. It runs on
// layout.Block2D.
func Cannon(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid2D(nd.P())
	i, j := g.Coords(nd.ID)
	return CannonRun(nd, g.RowChain(i), g.ColChain(j), i, j, g.Q, a, b, 1)
}

// CannonRun executes Cannon's algorithm from the point of view of the
// node at mesh position (i, j) on a q x q grid whose rows and columns
// are the given chains. It returns the node's C block. Blocks may be
// rectangular (Berntsen reuses this on outer-product slabs, and the
// supernode combinations in internal/core call it for their inner
// products); the inner dimensions of a and b must agree after
// alignment, i.e. a is (r x s) and b is (s x c) for every block.
// The phase parameter namespaces the message tags.
func CannonRun(nd *simnet.Node, rowCh, colCh hypercube.Chain, i, j, q int, a, b *matrix.Dense, phase uint64) *matrix.Dense {
	tg := func(step, kind int) uint64 { return phase<<20 | uint64(step)<<4 | uint64(kind) }

	// Phase 1: skew. A_ij -> p_{i,(j-i) mod q}; B_ij -> p_{(i-j) mod q, j}.
	// The skewed-away blocks are never read again on this node, so the
	// sends transfer ownership instead of copying.
	if q > 1 {
		nd.SendMOwned(rowCh.NodeAt(((j-i)%q+q)%q), tg(0, 0), a)
		nd.SendMOwned(colCh.NodeAt(((i-j)%q+q)%q), tg(0, 1), b)
		a = nd.RecvM(rowCh.NodeAt((j+i)%q), tg(0, 0))
		b = nd.RecvM(colCh.NodeAt((i+j)%q), tg(0, 1))
	}

	// Phase 2: sqrt(p)-step shift-multiply-add around the rings.
	c := matrix.New(a.Rows, b.Cols)
	nd.NoteWords(a.Words() + b.Words() + c.Words())
	left, up := rowCh.NodeAt(((j-1)%q+q)%q), colCh.NodeAt(((i-1)%q+q)%q)
	right, down := rowCh.NodeAt((j+1)%q), colCh.NodeAt((i+1)%q)
	for t := 0; t < q; t++ {
		nd.MulAdd(c, a, b)
		if t == q-1 {
			break
		}
		// Shift A one position left along the row ring and B one
		// position up along the column ring. On a multi-port machine
		// the two transfers overlap (row and column dimensions are
		// disjoint); on a one-port machine they serialize. Each block
		// is immediately replaced by the incoming one, so the shifts
		// relay the payload without copying.
		nd.SendMOwned(left, tg(t+1, 0), a)
		nd.SendMOwned(up, tg(t+1, 1), b)
		a = nd.RecvM(right, tg(t+1, 0))
		b = nd.RecvM(down, tg(t+1, 1))
	}
	return c
}
