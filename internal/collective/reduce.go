package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// ReduceOp is an all-to-one reduction by addition: the root ends with
// the element-wise sum of every node's block. It is the inverse of the
// one-to-all broadcast with respect to communication (Section 2), so it
// costs the same: one-port t_s log q + t_w M log q, multi-port
// t_s log q + t_w M.
type ReduceOp struct {
	c          Comm
	phase      uint64
	rel        int
	rows, cols int
	w          int
	acc        []float64
	sum        matrix.Dense // the root's result header
}

// NewReduce prepares a reduction of blk toward rootPos.
func (c Comm) NewReduce(phase uint64, rootPos int, blk *matrix.Dense) *ReduceOp {
	rootRank := hypercube.Gray(rootPos)
	op := &ReduceOp{
		c: c, phase: phase, rel: c.rank ^ rootRank,
		rows: blk.Rows, cols: blk.Cols, w: blk.Rows * blk.Cols,
	}
	op.acc = make([]float64, op.w)
	copy(op.acc, blk.Data)
	return op
}

// Steps implements Op.
func (op *ReduceOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *ReduceOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMin(op.rel, l, op.c.d) != s {
			continue
		}
		// This slice of acc is final once sent: no later step of this
		// node folds into it, and only the root, which never sends,
		// returns acc. So the partner reads it in place instead of a
		// transport copy.
		b := op.c.bit(l, s)
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), op.acc[lo:hi])
	}
}

// RecvStep implements Op.
func (op *ReduceOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMin(op.rel, l, op.c.d) <= s {
			continue
		}
		b := op.c.bit(l, s)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		if len(msg.Data) != hi-lo {
			panic(fmt.Sprintf("collective: Reduce slice %d got %d words want %d", l, len(msg.Data), hi-lo))
		}
		dst := op.acc[lo:hi]
		for i, v := range msg.Data {
			dst[i] += v
		}
		op.c.N.Compute(int64(hi - lo))
	}
}

// Result returns the summed block on the root, nil elsewhere.
func (op *ReduceOp) Result() *matrix.Dense {
	if op.rel != 0 {
		return nil
	}
	op.sum = matrix.Dense{Rows: op.rows, Cols: op.cols, Data: op.acc}
	return &op.sum
}

// Reduce sums every node's block at rootPos; the root returns the sum,
// other nodes return nil.
func (c Comm) Reduce(phase uint64, rootPos int, blk *matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blk
	}
	op := c.NewReduce(phase, rootPos, blk)
	Run(op)
	return op.Result()
}

// ReduceScatterOp is an all-to-all reduction: every node contributes a
// block per chain position; node at position j ends with the sum over
// contributors of the blocks destined for position j. It is the inverse
// of the all-to-all broadcast: one-port t_s log q + t_w (q-1)M,
// multi-port t_s log q + t_w (q-1)M / log q (Table 1).
type ReduceScatterOp struct {
	c          Comm
	phase      uint64
	rows, cols int
	w          int
	held       [][]float64 // slice l's partial sum for dest rank r at l*q + r, read-only; nil once sent
}

// NewReduceScatter prepares an all-to-all reduction; blocks are indexed
// by destination position and must be uniform.
func (c Comm) NewReduceScatter(phase uint64, blocks []*matrix.Dense) *ReduceScatterOp {
	if len(blocks) != c.q {
		panic(fmt.Sprintf("collective: ReduceScatter has %d blocks want %d", len(blocks), c.q))
	}
	rows, cols := checkUniform("ReduceScatter", blocks)
	op := &ReduceScatterOp{c: c, phase: phase, rows: rows, cols: cols, w: rows * cols, held: make([][]float64, c.g*c.q)}
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		for pos, b := range blocks {
			op.held[l*c.q+hypercube.Gray(pos)] = b.Data[lo:hi:hi]
		}
	}
	return op
}

// Steps implements Op.
func (op *ReduceScatterOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *ReduceScatterOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		myBit := op.c.rank & (1 << b)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		buf := make([]float64, 0, (hi-lo)*op.c.q>>(s+1))
		for x, piece := range held {
			if piece != nil && x&(1<<b) != myBit {
				buf = append(buf, piece...)
				held[x] = nil
			}
		}
		// buf is freshly assembled and never touched again here: hand
		// it to the network instead of paying a transport copy. The
		// receiver sums into it, so even a lone piece is copied, never
		// shared. Each step gets its own buffer, not a slice of one
		// per op: the result is a view of the last step's payload, and
		// a shared buffer would keep every step's pieces alive with it
		// (two clients on serve-compute's shapes peaked ~8 % higher).
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), buf)
	}
}

// RecvStep implements Op.
func (op *ReduceScatterOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		sz := hi - lo
		if want := sz * op.c.q >> (s + 1); len(msg.Data) != want {
			panic(fmt.Sprintf("collective: ReduceScatter slice %d got %d words want %d", l, len(msg.Data), want))
		}
		// The pieces are those of this rank's future-bits cube, in
		// ascending rank order. The partner assembled the payload for
		// us alone, so the sums are formed in it and it becomes the
		// held partial sums: the caller's blocks are never written and
		// nothing is copied. incoming + held equals held + incoming bit
		// for bit, so the result is the same as accumulating into
		// held. The payload is retained, so the message is not
		// released.
		future := op.c.futureBits(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		i := 0
		for x := range held {
			if !within(x, op.c.rank, future) {
				continue
			}
			sum := msg.Data[i*sz : (i+1)*sz : (i+1)*sz]
			for k, v := range held[x] {
				sum[k] += v
			}
			held[x] = sum
			i++
		}
		op.c.N.Compute(int64(len(msg.Data)))
	}
}

// Result returns the node's own summed block (valid after Run): on a
// one-port chain a read-only view of the last partial sum, on a
// multi-port one a fresh copy of its slices.
func (op *ReduceScatterOp) Result() *matrix.Dense {
	return op.c.blocks(1, op.rows, op.cols, func(_, l int) []float64 {
		piece := op.held[l*op.c.q+op.c.rank]
		if piece == nil {
			panic(fmt.Sprintf("collective: ReduceScatter missing own slice %d", l))
		}
		return piece
	})[0]
}

// ReduceScatter runs an all-to-all reduction: blocks are indexed by
// destination position; every node returns the sum of the blocks
// destined for its own position.
func (c Comm) ReduceScatter(phase uint64, blocks []*matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blocks[0]
	}
	op := c.NewReduceScatter(phase, blocks)
	Run(op)
	return op.Result()
}
