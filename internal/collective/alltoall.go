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
	held       []map[pieceKey][]float64
}

type pieceKey struct {
	origin, dest int // absolute chain ranks
}

// NewAllToAll prepares an all-to-all personalized exchange; blocks are
// indexed by destination position and must be uniform.
func (c Comm) NewAllToAll(phase uint64, blocks []*matrix.Dense) *AllToAllOp {
	if len(blocks) != c.q {
		panic(fmt.Sprintf("collective: AllToAll has %d blocks want %d", len(blocks), c.q))
	}
	rows, cols := checkUniform("AllToAll", blocks)
	op := &AllToAllOp{c: c, phase: phase, rows: rows, cols: cols, w: rows * cols}
	op.held = make([]map[pieceKey][]float64, c.g)
	for l := range op.held {
		op.held[l] = make(map[pieceKey][]float64, c.q)
		lo, hi := sliceBounds(op.w, c.g, l)
		for pos, b := range blocks {
			op.held[l][pieceKey{c.rank, hypercube.Gray(pos)}] = b.Data[lo:hi:hi]
		}
	}
	return op
}

// Steps implements Op.
func (op *AllToAllOp) Steps() int { return op.c.d }

// SendStep implements Op.
func (op *AllToAllOp) SendStep(s int) {
	op.c.check()
	for l := 0; l < op.c.g; l++ {
		lo, hi := sliceBounds(op.w, op.c.g, l)
		if lo == hi {
			continue
		}
		b := op.c.bit(l, s)
		myBit := op.c.rank & (1 << b)
		keys := make([]pieceKey, 0, len(op.held[l])/2)
		for k := range op.held[l] {
			if k.dest&(1<<b) != myBit {
				keys = append(keys, k)
			}
		}
		sortKeys(keys)
		buf := payload(len(keys), hi-lo, func(i int) []float64 { return op.held[l][keys[i]] })
		for _, k := range keys {
			delete(op.held[l], k)
		}
		op.c.N.SendOwned(op.c.partner(b), tag(op.phase, s, l), buf)
	}
}

// RecvStep implements Op.
func (op *AllToAllOp) RecvStep(s int) {
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
		dests := subsets(op.c.rank, op.c.futureBits(l, s))
		origins := subsets(partnerRank, op.c.pastBits(l, s))
		sz := hi - lo
		if len(msg.Data) != len(dests)*len(origins)*sz {
			panic(fmt.Sprintf("collective: AllToAll slice %d got %d words want %d", l, len(msg.Data), len(dests)*len(origins)*sz))
		}
		i := 0
		for _, x := range dests {
			for _, o := range origins {
				op.held[l][pieceKey{o, x}] = msg.Data[i*sz : (i+1)*sz]
				i++
			}
		}
	}
}

// sortKeys orders piece keys by (dest, origin) ascending, matching the
// receiver's enumeration order.
func sortKeys(a []pieceKey) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && (a[j].dest > v.dest || (a[j].dest == v.dest && a[j].origin > v.origin)) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Result returns the blocks addressed to this node, indexed by origin
// position (valid after Run). One-port blocks are read-only views of
// the node's own and received pieces; multi-port blocks are fresh
// copies.
func (op *AllToAllOp) Result() []*matrix.Dense {
	return op.c.blocks(op.c.q, op.rows, op.cols, func(pos, l int) []float64 {
		piece, ok := op.held[l][pieceKey{hypercube.Gray(pos), op.c.rank}]
		if !ok {
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
