package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// BcastOp is a one-to-all broadcast along a chain: the node at rootPos
// holds a block that every chain node ends up with.
//
// One-port: spanning binomial tree, log q steps of the full message:
// t_s log q + t_w M log q (Table 1). Multi-port: the message is cut
// into d slices, slice l following the binomial schedule over the
// dimension order rotated by l, so every step moves all slices on
// distinct ports: t_s log q + t_w M.
type BcastOp struct {
	c          Comm
	phase      uint64
	rel        int // rank relative to the root
	rows, cols int
	w          int
	data       []float64
	blk        matrix.Dense // the result header
}

// NewBcast prepares a broadcast. Every participant must pass the block
// shape (rows, cols); only the root passes blk (others nil).
func (c Comm) NewBcast(phase uint64, rootPos, rows, cols int, blk *matrix.Dense) *BcastOp {
	rootRank := hypercube.Gray(rootPos)
	op := &BcastOp{
		c: c, phase: phase, rel: c.rank ^ rootRank,
		rows: rows, cols: cols, w: rows * cols,
	}
	if op.rel == 0 {
		if blk == nil || blk.Rows != rows || blk.Cols != cols {
			panic(fmt.Sprintf("collective: Bcast root block mismatch (want %dx%d)", rows, cols))
		}
		op.data = blk.Data
	} else {
		op.data = make([]float64, op.w)
	}
	return op
}

// Steps implements Op.
func (op *BcastOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *BcastOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMax(op.rel, l, op.c.d) >= s {
			continue // nothing to send, or not yet a holder
		}
		b := op.c.bit(l, s)
		op.c.N.Send(op.c.partner(b), tag(op.phase, s, l), op.data[lo:hi])
	}
}

// RecvStep implements Op.
func (op *BcastOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMax(op.rel, l, op.c.d) != s {
			continue
		}
		b := op.c.bit(l, s)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		if len(msg.Data) != hi-lo {
			panic(fmt.Sprintf("collective: Bcast slice %d got %d words want %d", l, len(msg.Data), hi-lo))
		}
		copy(op.data[lo:hi], msg.Data)
		msg.Release() // payload fully copied into the local block
	}
}

// Result returns the broadcast block (valid after Run).
func (op *BcastOp) Result() *matrix.Dense {
	op.blk = matrix.Dense{Rows: op.rows, Cols: op.cols, Data: op.data}
	return &op.blk
}

// Bcast runs a one-to-all broadcast and returns the block on every node.
func (c Comm) Bcast(phase uint64, rootPos, rows, cols int, blk *matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blk
	}
	op := c.NewBcast(phase, rootPos, rows, cols, blk)
	Run(op)
	return op.Result()
}
