package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// AllGatherOp is an all-to-all broadcast along a chain: every node
// contributes one block and every node ends with all q blocks.
//
// One-port: recursive doubling, t_s log q + t_w (q-1)M (Table 1).
// Multi-port: d rotated slices, t_s log q + t_w (q-1)M / log q.
type AllGatherOp struct {
	c          Comm
	phase      uint64
	rows, cols int
	w          int
	held       [][]float64 // slice l's piece of absolute rank r at l*q + r; nil until held
	stage      stage
}

// NewAllGather prepares an all-gather of blk.
func (c Comm) NewAllGather(phase uint64, blk *matrix.Dense) *AllGatherOp {
	op := &AllGatherOp{
		c: c, phase: phase,
		rows: blk.Rows, cols: blk.Cols, w: blk.Rows * blk.Cols,
		held: make([][]float64, c.g*c.q),
	}
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		op.held[l*c.q+c.rank] = blk.Data[lo:hi:hi]
	}
	return op
}

// Steps implements Op.
func (op *AllGatherOp) Steps() int { return op.c.d }

// SendStep implements Op. Step s sends the 2^s held pieces in rank
// order: at step 0 the node's own piece, shared read-only; later a
// fresh concatenation.
func (op *AllGatherOp) SendStep(s int) {
	op.c.check()
	if s == 1 {
		op.stage = make(stage, (op.c.q-2)*op.w)
	}
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		buf := held[op.c.rank]
		if s > 0 {
			buf = op.stage.take((hi - lo) << s)
			for _, piece := range held {
				buf = append(buf, piece...)
			}
		}
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), buf)
	}
}

// RecvStep implements Op.
func (op *AllGatherOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		sz := hi - lo
		if len(msg.Data) != sz<<s {
			panic(fmt.Sprintf("collective: AllGather slice %d got %d words want %d", l, len(msg.Data), sz<<s))
		}
		// The partner's pieces are its rank's past-bits cube, in
		// ascending rank order.
		from, past := op.c.rank^(1<<b), op.c.pastBits(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		i := 0
		for r := range held {
			if within(r, from, past) {
				held[r] = msg.Data[i*sz : (i+1)*sz]
				i++
			}
		}
	}
}

// Result returns all q blocks indexed by chain position (valid after
// Run). One-port blocks are read-only views of the contributed and
// received pieces; multi-port blocks are fresh copies.
func (op *AllGatherOp) Result() []*matrix.Dense {
	return op.c.blocks(op.c.q, op.rows, op.cols, func(pos, l int) []float64 {
		piece := op.held[l*op.c.q+hypercube.Gray(pos)]
		if piece == nil {
			panic(fmt.Sprintf("collective: AllGather missing piece pos=%d slice=%d", pos, l))
		}
		return piece
	})
}

// AllGather runs an all-to-all broadcast and returns the q blocks
// indexed by chain position on every node.
func (c Comm) AllGather(phase uint64, blk *matrix.Dense) []*matrix.Dense {
	if c.d == 0 {
		return []*matrix.Dense{blk}
	}
	op := c.NewAllGather(phase, blk)
	Run(op)
	return op.Result()
}
