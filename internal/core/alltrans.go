package core

import (
	"hypermm/internal/collective"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// AllTrans is the 3-D All_Trans algorithm (Section 4.2.1, Algorithm 4)
// on a cbrt(p)^3 grid, applicable for p <= n^(3/2). It is the 2-D
// Diagonal algorithm extended to the third dimension with the operand
// groups on every processor column, not just the diagonal: processor
// p_{i,j,k} starts with A_{k,f(i,j)} (Figure 8) and B_{f(i,j),k}
// (Figure 9) where f(i,j) = i*cbrt(p)+j — i.e. the transpose of B is
// distributed identically to A.
//
// Phase 1: each x-line gathers its B blocks at p_{k,j,k} (all-to-one,
// the inverse of a scatter). Phase 2: that node broadcasts the gathered
// B_{f(*,j),k} along z while every x-line all-to-all broadcasts its A
// blocks (overlapped on multi-port). Each processor then computes its
// block of the plane's outer product, I_{k,i} = sum_l A_{k,f(l,j)}
// B_{f(l,j),i}. Phase 3: all-to-all reduction along y delivers
// C_{k,f(i,j)} aligned exactly like A. It runs on layout.Fig8Trans.
func AllTrans(nd *simnet.Node, n int, a, b *matrix.Dense) *matrix.Dense {
	g := hypercube.NewGrid3D(nd.P())
	q := g.Q
	big := n / q         // block edge along the coarse axis
	small := n / (q * q) // block edge along the fine axis
	i, j, k := g.Coords(nd.ID)
	xc := collective.On(nd, g.XChain(j, k))

	// Phase 1: gather B blocks of the x-line at x-position k.
	gathered := xc.Gather(1, k, b) // at p_{k,j,k}: B_{f(l,j),k} by l

	// The z-root (k == i on its chain... the root of ZChain(i,j) at
	// z-position i is p_{i,j,i}, which as an x-gather root (k==i)
	// holds B_{f(*,j),i}. Stack the gathered blocks into one
	// (n/q x n/q) slab for the broadcast.
	var bSlab *matrix.Dense
	if i == k {
		bSlab = matrix.ConcatRows(gathered...)
	}

	// Phase 2: broadcast B_{f(*,j),i} along z from z-position i,
	// fused with the all-to-all broadcast of A along x.
	opB := collective.On(nd, g.ZChain(i, j)).NewBcast(2, i, big, big, bSlab)
	opA := xc.NewAllGather(3, a)
	collective.Run(opB, opA)
	bAll, aAll := opB.Result(), opA.Result()

	nd.NoteWords(bAll.Words() + big*small*q + big*big)

	// Compute I_{k,i} = sum_l A_{k,f(l,j)} x B_{f(l,j),i}.
	// Phase 3: all-to-all reduction along y: send column group l of
	// I_{k,i} toward y-position l; receive and sum the pieces for
	// our own y-position, yielding C_{k,f(i,j)}.
	pieces := nd.MulSumCols(q, aAll, bAll.RowGroups(q))
	return collective.On(nd, g.YChain(i, k)).ReduceScatter(4, pieces)
}
