package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// ScatterOp is a one-to-all personalized broadcast: the root holds one
// block per chain position and each node ends with its own block.
//
// One-port: binomial halving, t_s log q + t_w (q-1)M (Table 1).
// Multi-port: d rotated slices, t_s log q + t_w (q-1)M / log q.
type ScatterOp struct {
	c          Comm
	phase      uint64
	rel        int
	rows, cols int
	w          int
	held       [][]float64 // slice l's piece for relative dest rank x at l*q + x; nil when not held
	stage      stage
}

// NewScatter prepares a scatter. Every participant passes the piece
// shape; only the root passes blocks (indexed by position, length q).
func (c Comm) NewScatter(phase uint64, rootPos, rows, cols int, blocks []*matrix.Dense) *ScatterOp {
	rootRank := hypercube.Gray(rootPos)
	op := &ScatterOp{
		c: c, phase: phase, rel: c.rank ^ rootRank,
		rows: rows, cols: cols, w: rows * cols,
	}
	op.held = make([][]float64, c.g*c.q)
	if op.rel == 0 {
		if len(blocks) != c.q {
			panic(fmt.Sprintf("collective: Scatter root has %d blocks want %d", len(blocks), c.q))
		}
		for pos, b := range blocks {
			if b.Rows != rows || b.Cols != cols {
				panic(fmt.Sprintf("collective: Scatter block %d is %dx%d want %dx%d", pos, b.Rows, b.Cols, rows, cols))
			}
			xrel := hypercube.Gray(pos) ^ rootRank
			for l := 0; l < c.g; l++ {
				lo, hi := sliceBounds(op.w, c.g, l)
				op.held[l*c.q+xrel] = b.Data[lo:hi]
			}
		}
	}
	// A node first holding slice l after step r forwards all but its
	// own of the q/2^(r+1) pieces it then holds (the root, r = -1, all
	// but one of q).
	words := 0
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		words += (hi - lo) * (c.q>>(relStepMax(op.rel, l, c.d)+1) - 1)
	}
	op.stage = make(stage, words)
	return op
}

// relStepMax returns the largest rotated-order position among the set
// bits of rel (-1 if rel == 0): the step at which a binomial broadcast
// or scatter first reaches this node for slice l.
func relStepMax(rel, l, d int) int {
	step := -1
	for b := 0; b < d; b++ {
		if rel&(1<<b) != 0 {
			if s := (b - l + d) % d; s > step {
				step = s
			}
		}
	}
	return step
}

// relStepMin returns the smallest rotated-order position among the set
// bits of rel (d if rel == 0): the step at which a binomial gather or
// reduction sends from this node for slice l.
func relStepMin(rel, l, d int) int {
	step := d
	for b := 0; b < d; b++ {
		if rel&(1<<b) != 0 {
			if s := (b - l + d) % d; s < step {
				step = s
			}
		}
	}
	return step
}

// Steps implements Op.
func (op *ScatterOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *ScatterOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMax(op.rel, l, op.c.d) >= s {
			continue
		}
		// Half the 2^(d-s) held pieces go: those across bit b.
		b := op.c.bit(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		buf := op.stage.take((hi - lo) * op.c.q >> (s + 1))
		for x, piece := range held {
			if piece != nil && x&(1<<b) != 0 {
				buf = append(buf, piece...)
				held[x] = nil
			}
		}
		// buf is freshly assembled and never touched again: hand the
		// slice to the network instead of paying a transport copy.
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), buf)
	}
}

// RecvStep implements Op.
func (op *ScatterOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMax(op.rel, l, op.c.d) != s {
			continue
		}
		b := op.c.bit(l, s)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		sz := hi - lo
		if want := sz * op.c.q >> (s + 1); len(msg.Data) != want {
			panic(fmt.Sprintf("collective: Scatter slice %d got %d words want %d", l, len(msg.Data), want))
		}
		// The pieces are those of this node's future-bits cube, in
		// ascending relative rank.
		future := op.c.futureBits(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		i := 0
		for x := range held {
			if within(x, op.rel, future) {
				held[x] = msg.Data[i*sz : (i+1)*sz]
				i++
			}
		}
	}
}

// Result returns the node's own piece (valid after Run).
func (op *ScatterOp) Result() *matrix.Dense {
	out := matrix.New(op.rows, op.cols)
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		piece := op.held[l*op.c.q+op.rel]
		if piece == nil {
			panic(fmt.Sprintf("collective: Scatter missing own slice %d", l))
		}
		copy(out.Data[lo:hi], piece)
	}
	return out
}

// Scatter runs a one-to-all personalized broadcast; blocks (root only)
// are indexed by chain position. Every node returns its own block.
func (c Comm) Scatter(phase uint64, rootPos, rows, cols int, blocks []*matrix.Dense) *matrix.Dense {
	if c.d == 0 {
		return blocks[0]
	}
	op := c.NewScatter(phase, rootPos, rows, cols, blocks)
	Run(op)
	return op.Result()
}

// GatherOp is the inverse of scatter: every node contributes one block
// and the root ends with all q blocks. Cost mirrors ScatterOp.
type GatherOp struct {
	c          Comm
	phase      uint64
	rel        int
	rootRank   int
	rows, cols int
	w          int
	held       [][]float64 // slice l's piece from relative origin rank x at l*q + x; nil when not held
	stage      stage
}

// NewGather prepares a gather of blk toward rootPos.
func (c Comm) NewGather(phase uint64, rootPos int, blk *matrix.Dense) *GatherOp {
	rootRank := hypercube.Gray(rootPos)
	op := &GatherOp{
		c: c, phase: phase, rel: c.rank ^ rootRank, rootRank: rootRank,
		rows: blk.Rows, cols: blk.Cols, w: blk.Rows * blk.Cols,
	}
	op.held = make([][]float64, c.g*c.q)
	words := 0
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		op.held[l*c.q+op.rel] = blk.Data[lo:hi]
		// Slice l goes once, at step s = relStepMin, as the 2^s pieces
		// then held; the root never sends.
		if s := relStepMin(op.rel, l, c.d); s < c.d {
			words += (hi - lo) << s
		}
	}
	op.stage = make(stage, words)
	return op
}

// Steps implements Op.
func (op *GatherOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *GatherOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMin(op.rel, l, op.c.d) != s {
			continue
		}
		b := op.c.bit(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		buf := op.stage.take((hi - lo) << s)
		for x, piece := range held {
			buf = append(buf, piece...)
			held[x] = nil
		}
		// buf is freshly assembled and never touched again: hand the
		// slice to the network instead of paying a transport copy.
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), buf)
	}
}

// RecvStep implements Op.
func (op *GatherOp) RecvStep(s int) {
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi || relStepMin(op.rel, l, op.c.d) <= s {
			continue
		}
		b := op.c.bit(l, s)
		prel := op.rel ^ (1 << b)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		sz := hi - lo
		if len(msg.Data) != sz<<s {
			panic(fmt.Sprintf("collective: Gather slice %d got %d words want %d", l, len(msg.Data), sz<<s))
		}
		// The pieces are those of the partner's past-bits cube, in
		// ascending relative rank.
		past := op.c.pastBits(l, s)
		held := op.held[l*op.c.q : (l+1)*op.c.q]
		i := 0
		for x := range held {
			if within(x, prel, past) {
				held[x] = msg.Data[i*sz : (i+1)*sz]
				i++
			}
		}
	}
}

// Result returns the gathered blocks indexed by position on the root,
// nil elsewhere (valid after Run).
func (op *GatherOp) Result() []*matrix.Dense {
	if op.rel != 0 {
		return nil
	}
	out := make([]*matrix.Dense, op.c.q)
	for pos := range out {
		xrel := hypercube.Gray(pos) ^ op.rootRank
		blk := matrix.New(op.rows, op.cols)
		for l := 0; l < op.c.g; l++ {
			lo, hi := sliceBounds(op.w, op.c.g, l)
			if lo == hi {
				continue
			}
			piece := op.held[l*op.c.q+xrel]
			if piece == nil {
				panic(fmt.Sprintf("collective: Gather missing piece pos=%d slice=%d", pos, l))
			}
			copy(blk.Data[lo:hi], piece)
		}
		out[pos] = blk
	}
	return out
}

// Gather collects every node's block at rootPos; the root returns the
// blocks indexed by position, all other nodes return nil.
func (c Comm) Gather(phase uint64, rootPos int, blk *matrix.Dense) []*matrix.Dense {
	if c.d == 0 {
		return []*matrix.Dense{blk}
	}
	op := c.NewGather(phase, rootPos, blk)
	Run(op)
	return op.Result()
}
