package collective

import (
	"fmt"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
)

// AllToAllOp is an all-to-all personalized communication along a chain:
// every node holds one block per destination position; node j ends with
// the q blocks addressed to it, indexed by origin position.
//
// The schedule is the classic pairwise hypercube exchange: at the step
// using chain bit b, a node forwards every held piece whose destination
// disagrees with it on bit b. Each step carries q/2 pieces, so the
// one-port cost is t_s log q + t_w q M log q / 2 (Table 1); the
// multi-port sliced variant divides the t_w term by log q.
type AllToAllOp struct {
	c          Comm
	phase      uint64
	rows, cols int
	w          int
	held       [][]float64 // slice l's piece (origin o, dest x) at (l*q + x)*q + o; nil when not held
	stage      stage
}

// NewAllToAll prepares an all-to-all personalized exchange; blocks are
// indexed by destination position and must be uniform.
func (c Comm) NewAllToAll(phase uint64, blocks []*matrix.Dense) *AllToAllOp {
	if len(blocks) != c.q {
		panic(fmt.Sprintf("collective: AllToAll has %d blocks want %d", len(blocks), c.q))
	}
	rows, cols := checkUniform("AllToAll", blocks)
	op := &AllToAllOp{c: c, phase: phase, rows: rows, cols: cols, w: rows * cols, held: make([][]float64, c.g*c.q*c.q)}
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(op.w, c.g, l)
		for pos, b := range blocks {
			op.held[op.at(l, c.rank, hypercube.Gray(pos))] = b.Data[lo:hi:hi]
		}
	}
	if c.q > 2 {
		// Every step sends q/2 pieces of every slice; a lone piece
		// (q = 2) goes out shared.
		op.stage = make(stage, c.d*c.q/2*op.w)
	}
	return op
}

// at indexes slice l's piece from origin to dest.
func (op *AllToAllOp) at(l, origin, dest int) int { return (l*op.c.q+dest)*op.c.q + origin }

// Steps implements Op.
func (op *AllToAllOp) Steps() int { return op.c.d }

// SendStep implements Op. The pieces go out in (dest, origin) order.
func (op *AllToAllOp) SendStep(s int) {
	op.c.check()
	q := op.c.q
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		myBit := op.c.rank & (1 << b)
		var buf []float64
		if q > 2 {
			buf = op.stage.take((hi - lo) * q / 2)
		}
		for x := 0; x < q; x++ {
			if x&(1<<b) == myBit {
				continue
			}
			held := op.held[op.at(l, 0, x):op.at(l, q, x)]
			for o, piece := range held {
				if piece == nil {
					continue
				}
				if q > 2 {
					buf = append(buf, piece...)
				} else {
					buf = piece
				}
				held[o] = nil
			}
		}
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), buf)
	}
}

// RecvStep implements Op.
func (op *AllToAllOp) RecvStep(s int) {
	q := op.c.q
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		partnerRank := op.c.rank ^ (1 << b)
		msg := op.c.N.Recv(op.c.partner(b), tag(op.phase, s, l))
		// Incoming pieces: destinations agree with us on the processed
		// bits and on bit b; origins agree with the partner off the
		// processed bits. Both sides enumerate in (dest, origin) order.
		future, past := op.c.futureBits(l, s), op.c.pastBits(l, s)
		sz := hi - lo
		if want := q / 2 * sz; len(msg.Data) != want {
			panic(fmt.Sprintf("collective: AllToAll slice %d got %d words want %d", l, len(msg.Data), want))
		}
		i := 0
		for x := 0; x < q; x++ {
			if !within(x, op.c.rank, future) {
				continue
			}
			for o := 0; o < q; o++ {
				if within(o, partnerRank, past) {
					op.held[op.at(l, o, x)] = msg.Data[i*sz : (i+1)*sz]
					i++
				}
			}
		}
	}
}

// Result returns the blocks addressed to this node, indexed by origin
// position (valid after Run). One-port blocks are read-only views of
// the node's own and received pieces; multi-port blocks are fresh
// copies.
func (op *AllToAllOp) Result() []*matrix.Dense {
	return op.c.blocks(op.c.q, op.rows, op.cols, func(pos, l int) []float64 {
		piece := op.held[op.at(l, hypercube.Gray(pos), op.c.rank)]
		if piece == nil {
			panic(fmt.Sprintf("collective: AllToAll missing piece origin=%d slice=%d", pos, l))
		}
		return piece
	})
}

// AllToAll runs an all-to-all personalized exchange: blocks indexed by
// destination position in, blocks indexed by origin position out.
func (c Comm) AllToAll(phase uint64, blocks []*matrix.Dense) []*matrix.Dense {
	if c.d == 0 {
		return []*matrix.Dense{blocks[0]}
	}
	op := c.NewAllToAll(phase, blocks)
	Run(op)
	return op.Result()
}
