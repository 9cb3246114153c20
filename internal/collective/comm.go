// Package collective implements the hypercube collective communication
// operations of the paper's Table 1 on subcube chains: one-to-all
// broadcast, one-to-all personalized broadcast (scatter) and its inverse
// (gather), all-to-all broadcast (all-gather), all-to-one reduction,
// all-to-all reduction (reduce-scatter), and all-to-all personalized
// communication.
//
// Every operation has two executions selected by the machine's port
// model:
//
//   - One-port: the classical spanning-binomial-tree / recursive
//     doubling algorithms, matching Table 1's one-port column.
//   - Multi-port: the message is split into d = log q slices and slice
//     l runs the same schedule over the chain's dimension order rotated
//     by l, so at every step all d ports carry a distinct slice. This
//     reproduces the t_w terms of Table 1's multi-port column (the
//     "log N trees concurrently" technique of Ho and Johnsson) whenever
//     the message has at least log q words.
//
// Operations are built as step machines (Op) so that two collectives on
// disjoint grid dimensions can be fused with Run(op1, op2): their steps
// interleave and, on a multi-port machine, overlap — the paper's "the
// two broadcasts can occur in parallel".
//
// Blocks are indexed by grid *position* (Gray-embedded); internally all
// schedules run in subcube rank space.
package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Comm is one node's view of a chain: the node, the chain, and the
// node's rank/position on it.
type Comm struct {
	N  *simnet.Node
	Ch hypercube.Chain

	rank, pos int
	d, q      int
	g         int // slice count: 1 for one-port, max(d,1) for multi-port
}

// On binds a node to a chain it lies on.
func On(n *simnet.Node, ch hypercube.Chain) Comm {
	rank := ch.RankOf(n.ID)
	c := Comm{
		N: n, Ch: ch,
		rank: rank, pos: hypercube.GrayRank(rank),
		d: ch.Dim(), q: ch.Q(),
	}
	c.g = 1
	if n.Ports() == simnet.MultiPort && c.d > 1 {
		c.g = c.d
	}
	return c
}

// Pos returns the node's grid position on the chain.
func (c Comm) Pos() int { return c.pos }

// Rank returns the node's subcube rank on the chain.
func (c Comm) Rank() int { return c.rank }

// Q returns the chain length.
func (c Comm) Q() int { return c.q }

// check enforces the machine's simulated-time deadline at collective
// step granularity: every op calls it on entering a send step, so a
// collective whose node has run out of simulated-time budget fails with
// a typed ErrDeadline fault between steps even when the overrun came
// from compute (Send and Recv check again internally for the
// communication-bound case).
func (c Comm) check() { c.N.CheckDeadline() }

// bit returns the chain-local bit index used by slice l at step s:
// the rotated dimension order that lets all slices use distinct
// physical ports at every step.
func (c Comm) bit(l, s int) int { return (l + s) % c.d }

// partner returns the physical node across chain bit b.
func (c Comm) partner(b int) int {
	return c.Ch.NodeAtRank(c.rank ^ (1 << b))
}

// tag composes a message tag from the caller's phase id plus the
// collective-internal step and slice numbers. Algorithms must use
// distinct phase ids for collectives that could be in flight between
// the same pair of nodes at the same time.
func tag(phase uint64, step, slice int) uint64 {
	return phase<<16 | uint64(step)<<8 | uint64(slice)
}

// sliceBounds returns the [lo, hi) word range of slice l when a block
// of w words is cut into g nearly equal slices.
func sliceBounds(w, g, l int) (lo, hi int) {
	return l * w / g, (l + 1) * w / g
}

// bits returns the mask of the chain bits slice l uses at steps
// from .. to-1.
func (c Comm) bits(l, from, to int) int {
	m := 0
	for t := from; t < to; t++ {
		m |= 1 << c.bit(l, t)
	}
	return m
}

// pastBits returns the mask of the chain bits slice l used at steps
// 0 .. s-1.
func (c Comm) pastBits(l, s int) int { return c.bits(l, 0, s) }

// futureBits returns the mask of the chain bits slice l uses at steps
// s+1 .. d-1.
func (c Comm) futureBits(l, s int) int { return c.bits(l, s+1, c.d) }

// within reports whether rank r is base XOR some subset of the bits in
// mask. Ranging r upward over the chain with it enumerates that subset
// cube in ascending order, the order every piece sequence is packed in.
func within(r, base, mask int) bool { return (r^base)&^mask == 0 }

// stage carves the send buffers one op assembles over all its steps out
// of one allocation. Receivers keep what they are sent, so a buffer is
// never reused; one allocation per op replaces one per send.
type stage []float64

// take returns an empty buffer with room for n words.
func (st *stage) take(n int) []float64 {
	buf := (*st)[:0:n]
	*st = (*st)[n:]
	return buf
}

// Op is a collective compiled to a lockstep step machine. At each step
// an Op first issues all its sends, then completes all its receives
// (plus any local combining). Run drives one or more Ops together.
type Op interface {
	Steps() int
	SendStep(s int)
	RecvStep(s int)
}

// Run drives one or more collective step machines in lockstep. Fusing
// two collectives that live on disjoint grid dimensions makes their
// transfers overlap on a multi-port machine; on a one-port machine they
// serialize through the node's ports exactly as the paper charges.
func Run(ops ...Op) {
	steps := 0
	for _, op := range ops {
		if s := op.Steps(); s > steps {
			steps = s
		}
	}
	for s := 0; s < steps; s++ {
		for _, op := range ops {
			if s < op.Steps() {
				op.SendStep(s)
			}
		}
		for _, op := range ops {
			if s < op.Steps() {
				op.RecvStep(s)
			}
		}
	}
}

// blocks returns count rows x cols blocks whose slice l is piece(i, l).
// One-port (g == 1) blocks are views of the held pieces: a piece is the
// caller's own input or received payload that no later step writes, so
// sharing it costs nothing. Multi-port blocks gather their g slices
// from separate pieces and are copied into one batch allocation.
func (c Comm) blocks(count, rows, cols int, piece func(i, l int) []float64) []*matrix.Dense {
	w := rows * cols
	if c.g == 1 {
		ds := make([]matrix.Dense, count)
		out := make([]*matrix.Dense, count)
		for i := range ds {
			ds[i] = matrix.Dense{Rows: rows, Cols: cols}
			if w > 0 {
				ds[i].Data = piece(i, 0)
			}
			out[i] = &ds[i]
		}
		return out
	}
	out := matrix.NewBatch(count, rows, cols)
	for i, blk := range out {
		for l := 0; l < c.g; l++ {
			if lo, hi := sliceBounds(w, c.g, l); lo < hi {
				copy(blk.Data[lo:hi], piece(i, l))
			}
		}
	}
	return out
}

// checkUniform validates that all non-nil blocks share one shape and
// returns it.
func checkUniform(op string, blocks []*matrix.Dense) (rows, cols int) {
	rows, cols = -1, -1
	for _, b := range blocks {
		if b == nil {
			continue
		}
		if rows == -1 {
			rows, cols = b.Rows, b.Cols
		} else if b.Rows != rows || b.Cols != cols {
			panic(fmt.Sprintf("collective: %s blocks not uniform: %dx%d vs %dx%d", op, b.Rows, b.Cols, rows, cols))
		}
	}
	if rows == -1 {
		panic(fmt.Sprintf("collective: %s received no blocks", op))
	}
	return rows, cols
}
