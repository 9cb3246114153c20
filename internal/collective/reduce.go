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
	sendStep   []int
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
	op.sendStep = make([]int, c.g)
	for l := range op.sendStep {
		op.sendStep[l] = relStepMin(op.rel, l, c.d)
	}
	return op
}

// Steps implements Op.
func (op *ReduceOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *ReduceOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || op.sendStep[l] != s {
			continue
		}
		b := op.c.bit(l, s)
		op.c.N.Send(op.c.partner(b), tag(op.phase, s, l), op.acc[lo:hi])
	}
}

// RecvStep implements Op.
func (op *ReduceOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || op.sendStep[l] <= s {
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
		msg.Release() // payload fully folded into acc
		op.c.N.Compute(int64(hi - lo))
	}
}

// Result returns the summed block on the root, nil elsewhere.
func (op *ReduceOp) Result() *matrix.Dense {
	if op.rel != 0 {
		return nil
	}
	return matrix.FromSlice(op.rows, op.cols, op.acc)
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
	held       []map[int][]float64 // per slice: dest rank -> partial sum, read-only
}

// NewReduceScatter prepares an all-to-all reduction; blocks are indexed
// by destination position and must be uniform.
func (c Comm) NewReduceScatter(phase uint64, blocks []*matrix.Dense) *ReduceScatterOp {
	if len(blocks) != c.q {
		panic(fmt.Sprintf("collective: ReduceScatter has %d blocks want %d", len(blocks), c.q))
	}
	rows, cols := checkUniform("ReduceScatter", blocks)
	op := &ReduceScatterOp{c: c, phase: phase, rows: rows, cols: cols, w: rows * cols}
	op.held = make([]map[int][]float64, c.g)
	for l := range op.held {
		op.held[l] = make(map[int][]float64, c.q)
		lo, hi := sliceBounds(op.w, c.g, l)
		for pos, b := range blocks {
			op.held[l][hypercube.Gray(pos)] = b.Data[lo:hi:hi]
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
		keys := make([]int, 0, len(op.held[l])/2)
		for x := range op.held[l] {
			if x&(1<<b) != myBit {
				keys = append(keys, x)
			}
		}
		sortInts(keys)
		buf := make([]float64, 0, len(keys)*(hi-lo))
		for _, x := range keys {
			buf = append(buf, op.held[l][x]...)
			delete(op.held[l], x)
		}
		// buf is freshly assembled and never touched again here: hand
		// it to the network instead of paying a transport copy. The
		// receiver sums into it, so even a lone piece is copied, never
		// shared.
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
		kept := subsets(op.c.rank, op.c.futureBits(l, s))
		sz := hi - lo
		if len(msg.Data) != len(kept)*sz {
			panic(fmt.Sprintf("collective: ReduceScatter slice %d got %d words want %d", l, len(msg.Data), len(kept)*sz))
		}
		// The partner assembled the payload for us alone, so the sums
		// are formed in it and it becomes the held partial sums: the
		// caller's blocks are never written and nothing is copied.
		// incoming + held equals held + incoming bit for bit, so the
		// result is the same as accumulating into held. The payload is
		// retained, so the message is not released.
		for i, x := range kept {
			sum := msg.Data[i*sz : (i+1)*sz : (i+1)*sz]
			for k, v := range op.held[l][x] {
				sum[k] += v
			}
			op.held[l][x] = sum
		}
		op.c.N.Compute(int64(len(msg.Data)))
	}
}

// Result returns the node's own summed block (valid after Run): on a
// one-port chain a read-only view of the last partial sum, on a
// multi-port one a fresh copy of its slices.
func (op *ReduceScatterOp) Result() *matrix.Dense {
	return op.c.blocks(1, op.rows, op.cols, func(_, l int) []float64 {
		piece, ok := op.held[l][op.c.rank]
		if !ok {
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
