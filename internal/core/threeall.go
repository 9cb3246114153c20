package core

import (
	"fmt"

	"hypermm/internal/algorithms"
	"hypermm/internal/hypercube"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// ThreeAll is the 3-D All algorithm (Section 4.2.2, Algorithm 5) — the
// paper's headline contribution, applicable for p <= n^(3/2). Unlike
// 3-D All_Trans it starts from *identical* distributions of A and B:
// processor p_{i,j,k} holds A_{k,f(i,j)} and B_{k,f(i,j)} with both
// operands partitioned as in Figure 8, and it finishes with even lower
// communication overhead.
//
// Phase 1 is an all-to-all personalized communication along y: p_{i,j,k}
// sends the l-th row group of its B block to p_{i,l,k}. The pieces each
// node receives assemble (the paper's proof of correctness, verified in
// this package's tests) into B_{f(k,j),i} of the Figure-9 partition.
// Phase 2 all-to-all broadcasts the new B blocks along z and the A
// blocks along x (overlapped on multi-port). Each processor computes
// I_{k,i} = sum_m A_{k,f(m,j)} B_{f(m,j),i}, and phase 3 is an
// all-to-all reduction along y that leaves C_{k,f(i,j)} distributed
// exactly like the operands.
//
// One-port cost (Table 2):
//
//	t_s (4/3) log p + t_w (n^2/p^(2/3)) (3(1-1/cbrt p) + log p/(6 cbrt p))
//
// the least communication overhead of all algorithms wherever it
// applies, for every p >= 8. It runs on layout.Fig8.
func ThreeAll(nd *simnet.Node, _ int, a, b *matrix.Dense) *matrix.Dense {
	return threeAllGridRound(nd, cube(nd.P()), a, b, 0)
}

// cube is the Q x qy x Q grid with qy = Q = cbrt(p); the grid
// implementation with that shape is bit-for-bit the paper's Algorithm 5
// (asserted in tests).
func cube(p int) hypercube.GridRect {
	g, _ := hypercube.NewGridRect(p, 1<<(hypercube.Log2(p)/3)) // valid: layout.Fig8 accepted p
	return g
}

// ThreeAllRepeated computes A^(2^rounds) by repeated squaring entirely
// on the machine: because 3-D All leaves its result distributed exactly
// like its operands (the property the paper emphasizes), successive
// rounds chain with zero redistribution — the output blocks of one
// round are the input blocks of the next.
func ThreeAllRepeated(m *simnet.Machine, A *matrix.Dense, rounds int) (*matrix.Dense, simnet.RunStats, error) {
	if rounds < 0 {
		return nil, simnet.RunStats{}, fmt.Errorf("core: negative round count %d", rounds)
	}
	return algorithms.Spec{Dist: layout.Fig8, Run: func(nd *simnet.Node, _ int, x, _ *matrix.Dense) *matrix.Dense {
		g := cube(nd.P())
		for r := 0; r < rounds; r++ {
			// A and B are the same distributed matrix: squaring.
			x = threeAllGridRound(nd, g, x, x, uint64(r)*16)
		}
		return x
	}}.Multiply(m, A, A)
}
