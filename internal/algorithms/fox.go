package algorithms

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Fox is the Fox-Otto-Hey broadcast-multiply-roll algorithm (the
// paper's reference [4], "Matrix algorithms on a hypercube I"),
// included as an additional baseline beyond the paper's Table 2. On a
// sqrt(p) x sqrt(p) mesh with the natural block distribution, step t
// has each row broadcast its diagonal-offset block A_{i,(i+t) mod q}
// across the row, every processor multiply it with its current B block,
// and B roll one position up its column ring.
//
// Against Cannon it trades the one-time skew for a one-to-all broadcast
// in every step, so its start-up term is Theta(sqrt(p) log sqrt(p)) —
// strictly worse on hypercubes, which is why the paper's comparison
// set omits it; it is here for completeness of the historical lineage.
// It runs on layout.Block2D.
func Fox(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid2D(nd.P())
	q := g.Q
	blk := n / q
	i, j := g.Coords(nd.ID)
	rowC := collective.On(nd, g.RowChain(i))
	colCh := g.ColChain(j)

	c := matrix.New(blk, blk)
	nd.NoteWords(3*blk*blk + blk*blk)
	for t := 0; t < q; t++ {
		// Broadcast A_{i,(i+t) mod q} across row i.
		root := (i + t) % q
		var mine *matrix.Dense
		if j == root {
			mine = a
		}
		abc := rowC.Bcast(uint64(1000+t), root, blk, blk, mine)
		nd.MulAdd(c, abc, b)
		if t == q-1 {
			break
		}
		// Roll B one position up the column ring; b is immediately
		// replaced by the incoming block, so the send relays the
		// payload without copying.
		nd.SendMOwned(colCh.NodeAt(((i-1)%q+q)%q), uint64(2000+t), b)
		b = nd.RecvM(colCh.NodeAt((i+1)%q), uint64(2000+t))
	}
	return c
}
