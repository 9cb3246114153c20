package algorithms

import (
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// HJE is the Ho-Johnsson-Edelman algorithm (Section 3.3, Algorithm 1):
// Cannon's shift-multiply-add restructured so that a multi-port
// hypercube's full bandwidth is used. The operands are first skewed by
// bitwise XOR (A_ij -> p_{i, j^i}, B_ij -> p_{i^j, j}), which aligns
// the inner block indices at i^j. Then, over sqrt(p) steps, the local
// A block is kept split into log sqrt(p) column groups (B into row
// groups); at every step, group l is exchanged across the subcube
// dimension given by the Gray-code transition sequence left-rotated by
// l, so all 2 log sqrt(p) links of a node carry a distinct group
// simultaneously. The composite local product A~ x B~ accumulates
// exactly the contributions of Cannon's algorithm.
//
// Because every movement is an XOR, HJE uses the direct binary
// embedding of the mesh (processor (i,j) at address i*q+j) rather than
// the Gray-code embedding — every partner is then a physical neighbor.
//
// Requires log sqrt(p) to divide the block edge n/sqrt(p) (the paper's
// applicability condition n >= sqrt(p) log sqrt(p)). It runs on
// layout.Binary2D.
func HJE(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	dd := hypercube.Log2(nd.P()) / 2
	q := 1 << dd
	w := n / q
	i, j := nd.ID>>dd, nd.ID&(q-1)
	tg := func(phase, step, kind int) uint64 {
		return uint64(phase)<<28 | uint64(step)<<8 | uint64(kind)
	}

	// Skew by XOR, one bit at a time. Partners share the governing
	// coordinate, so exchanges pair up symmetrically; the A and B
	// exchanges of a bit use disjoint dimensions, so issuing both
	// sends before the receives lets a multi-port node overlap them.
	for d := 0; d < dd; d++ {
		moveA := hypercube.Bit(i, d) == 1 // A moves along the row: j -> j^2^d
		moveB := hypercube.Bit(j, d) == 1 // B moves along the column: i -> i^2^d
		if moveA {
			nd.SendM(nd.ID^(1<<d), tg(1, d, 0), a)
		}
		if moveB {
			nd.SendM(nd.ID^(1<<(dd+d)), tg(1, d, 1), b)
		}
		if moveA {
			a = nd.RecvM(nd.ID^(1<<d), tg(1, d, 0))
		}
		if moveB {
			b = nd.RecvM(nd.ID^(1<<(dd+d)), tg(1, d, 1))
		}
	}

	c := matrix.New(w, w)
	nd.NoteWords(a.Words() + b.Words() + c.Words())

	if q == 1 {
		nd.MulAdd(c, a, b)
		return c
	}

	// Shift-multiply-add over the rotated Gray tours.
	for t := 0; t < q; t++ {
		nd.MulAdd(c, a, b)
		if t == q-1 {
			break
		}
		base := hypercube.GrayStepBit(t) // transition Gray(t) -> Gray(t+1)
		// Issue all 2*dd group exchanges; each uses a distinct
		// physical dimension, so a multi-port node drives them all
		// at once. ColGroup and RowGroup return fresh copies, so they
		// are sent owned.
		for l := 0; l < dd; l++ {
			bl := (base + l) % dd
			nd.SendMOwned(nd.ID^(1<<bl), tg(2, t, l), a.ColGroup(dd, l))
			nd.SendMOwned(nd.ID^(1<<(dd+bl)), tg(3, t, l), b.RowGroup(dd, l))
		}
		for l := 0; l < dd; l++ {
			bl := (base + l) % dd
			ag := nd.RecvM(nd.ID^(1<<bl), tg(2, t, l))
			bg := nd.RecvM(nd.ID^(1<<(dd+bl)), tg(3, t, l))
			a.SetBlock(0, l*w/dd, ag)
			b.SetBlock(l*w/dd, 0, bg)
		}
	}
	return c
}
