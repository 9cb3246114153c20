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
	held       []map[int][]float64 // per slice: absolute rank -> slice words
}

// NewAllGather prepares an all-gather of blk.
func (c Comm) NewAllGather(phase uint64, blk *matrix.Dense) *AllGatherOp {
	op := &AllGatherOp{
		c: c, phase: phase,
		rows: blk.Rows, cols: blk.Cols, w: blk.Rows * blk.Cols,
	}
	op.held = make([]map[int][]float64, c.g)
	for l := range op.held {
		lo, hi := sliceBounds(op.w, c.g, l)
		op.held[l] = map[int][]float64{c.rank: blk.Data[lo:hi:hi]}
	}
	return op
}

// Steps implements Op.
func (op *AllGatherOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *AllGatherOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		keys := make([]int, 0, len(op.held[l]))
		for r := range op.held[l] {
			keys = append(keys, r)
		}
		sortInts(keys)
		buf := payload(len(keys), hi-lo, func(i int) []float64 { return op.held[l][keys[i]] })
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
		incoming := subsets(op.c.rank^(1<<b), op.c.pastBits(l, s))
		sz := hi - lo
		if len(msg.Data) != len(incoming)*sz {
			panic(fmt.Sprintf("collective: AllGather slice %d got %d words want %d", l, len(msg.Data), len(incoming)*sz))
		}
		for i, r := range incoming {
			op.held[l][r] = msg.Data[i*sz : (i+1)*sz]
		}
	}
}

// Result returns all q blocks indexed by chain position (valid after
// Run). One-port blocks are read-only views of the contributed and
// received pieces; multi-port blocks are fresh copies.
func (op *AllGatherOp) Result() []*matrix.Dense {
	return op.c.blocks(op.c.q, op.rows, op.cols, func(pos, l int) []float64 {
		piece, ok := op.held[l][hypercube.Gray(pos)]
		if !ok {
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
