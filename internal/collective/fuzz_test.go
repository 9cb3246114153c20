package collective

import (
	"testing"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// The fuzz targets drive the collectives over arbitrary payload shapes
// and chain lengths on both port models: whatever the block geometry,
// every node must end with exactly the blocks the pattern promises.
// Multi-port slicing is the interesting surface — blocks with fewer
// words than log q force empty slices at some steps.

func fuzzPorts(b uint8) simnet.PortModel {
	if b%2 == 0 {
		return simnet.OnePort
	}
	return simnet.MultiPort
}

func FuzzAllGatherShapes(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), int64(7))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(0), int64(1)) // 1x1 blocks on q=8: slices go empty
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), int64(3)) // one-port q=4: views and a shared lone block
	f.Fuzz(func(t *testing.T, dB, rB, cB, pmB uint8, seed int64) {
		q := 1 << (int(dB) % 4)
		rows, cols := 1+int(rB)%5, 1+int(cB)%7
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		own := newOwnership(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			blk := matrix.Random(rows, cols, seed+int64(c.Pos()))
			own.handIn(n.ID, blk)
			all := c.AllGather(1, blk)
			own.got(n.ID, all...)
			if len(all) != q {
				t.Errorf("pos %d: got %d blocks, want %d", c.Pos(), len(all), q)
				return
			}
			for j := range all {
				if !matrix.Equal(all[j], matrix.Random(rows, cols, seed+int64(j))) {
					t.Errorf("pos %d: block %d corrupted", c.Pos(), j)
				}
			}
			laterSteps(c, all)
		})
		own.check(t)
	})
}

func FuzzAllToAllShapes(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(4), uint8(1), int64(11))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(0), int64(4)) // one-port q=2: a lone piece is shared
	f.Add(uint8(3), uint8(1), uint8(2), uint8(0), int64(5)) // one-port q=8
	f.Fuzz(func(t *testing.T, dB, rB, cB, pmB uint8, seed int64) {
		q := 1 << (int(dB) % 4)
		rows, cols := 1+int(rB)%4, 1+int(cB)%6
		// blockFor(src, dst): the block src sends to dst, reconstructible
		// at the receiver for verification.
		blockFor := func(src, dst int) *matrix.Dense {
			return matrix.Random(rows, cols, seed+int64(src*64+dst))
		}
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		own := newOwnership(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			out := make([]*matrix.Dense, q)
			for dst := range out {
				out[dst] = blockFor(c.Pos(), dst)
			}
			own.handIn(n.ID, out...)
			in := c.AllToAll(1, out)
			own.got(n.ID, in...)
			for src := range in {
				if !matrix.Equal(in[src], blockFor(src, c.Pos())) {
					t.Errorf("pos %d: block from %d corrupted", c.Pos(), src)
				}
			}
			laterSteps(c, in)
		})
		own.check(t)
	})
}

func FuzzReduceShapes(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), uint8(0), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, dB, rB, cB, rootB, pmB uint8, seed int64) {
		q := 1 << (1 + int(dB)%3)
		rows, cols := 1+int(rB)%4, 1+int(cB)%5
		root := int(rootB) % q
		want := matrix.New(rows, cols)
		for j := 0; j < q; j++ {
			want.AddInto(matrix.Random(rows, cols, seed+int64(j)))
		}
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			got := c.Reduce(1, root, matrix.Random(rows, cols, seed+int64(c.Pos())))
			if c.Pos() == root {
				if matrix.MaxAbsDiff(got, want) > 1e-9 {
					t.Errorf("root %d: reduced sum wrong", root)
				}
			} else if got != nil {
				t.Errorf("pos %d: non-root received a reduction result", c.Pos())
			}
		})
	})
}

func FuzzReduceScatterShapes(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(1), int64(9))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(0), int64(2)) // one-port q=8
	f.Fuzz(func(t *testing.T, dB, rB, cB, pmB uint8, seed int64) {
		q := 1 << (1 + int(dB)%3)
		rows, cols := 1+int(rB)%4, 1+int(cB)%5
		// contribFor(src, slot): src's contribution to slot's result.
		contribFor := func(src, slot int) *matrix.Dense {
			return matrix.Random(rows, cols, seed+int64(src*64+slot))
		}
		m := newMach(q, fuzzPorts(pmB), 1, 1)
		ch := chainOf(q)
		own := newOwnership(q)
		m.Run(func(n *simnet.Node) {
			c := On(n, ch)
			blocks := make([]*matrix.Dense, q)
			for slot := range blocks {
				blocks[slot] = contribFor(c.Pos(), slot)
			}
			own.handIn(n.ID, blocks...)
			got := c.ReduceScatter(1, blocks)
			own.got(n.ID, got)
			if want := refReduceScatter(c, rows, cols, contribFor); !matrix.Equal(got, want) {
				t.Errorf("pos %d: reduce-scatter slot differs from the reference by %g", c.Pos(), matrix.MaxAbsDiff(got, want))
			}
			same := make([]*matrix.Dense, q)
			for i := range same {
				same[i] = got
			}
			laterSteps(c, same)
		})
		own.check(t)
	})
}

// refReduceScatter is a copying reference for the node's reduce-scatter
// result: fresh buffers throughout, each slice l summed in the order
// its schedule adds — at step s, across chain bit (l+s) mod d, the
// partial sum held at rank r plus the one held at its partner.
func refReduceScatter(c Comm, rows, cols int, contribFor func(src, slot int) *matrix.Dense) *matrix.Dense {
	out := matrix.New(rows, cols)
	for l := 0; l < c.g; l++ {
		lo, hi := sliceBounds(rows*cols, c.g, l)
		var part func(s, r int) []float64
		part = func(s, r int) []float64 {
			if s == 0 {
				return append([]float64(nil), contribFor(hypercube.GrayRank(r), c.Pos()).Data[lo:hi]...)
			}
			x, y := part(s-1, r), part(s-1, r^(1<<c.bit(l, s-1)))
			for k := range x {
				x[k] += y[k]
			}
			return x
		}
		copy(out.Data[lo:hi], part(c.d, c.rank))
	}
	return out
}

// ownership checks the read-only contract around the collective under
// test on every node of a run: the blocks a node hands in and the
// blocks it gets back are recorded with copies, and after the run —
// every later step on every node done — each input must be
// bit-unchanged and each output must still equal its copy at return.
type ownership struct {
	ins, insAt, outs, outsAt [][]*matrix.Dense // per node ID
}

func newOwnership(p int) *ownership {
	return &ownership{
		ins: make([][]*matrix.Dense, p), insAt: make([][]*matrix.Dense, p),
		outs: make([][]*matrix.Dense, p), outsAt: make([][]*matrix.Dense, p),
	}
}

func (o *ownership) handIn(id int, blocks ...*matrix.Dense) {
	o.ins[id], o.insAt[id] = blocks, clones(blocks)
}

func (o *ownership) got(id int, blocks ...*matrix.Dense) {
	o.outs[id], o.outsAt[id] = blocks, clones(blocks)
}

func (o *ownership) check(t *testing.T) {
	t.Helper()
	for id := range o.ins {
		for i, b := range o.ins[id] {
			if !matrix.Equal(b, o.insAt[id][i]) {
				t.Errorf("node %d: input block %d was written", id, i)
			}
		}
		for i, b := range o.outs[id] {
			if !matrix.Equal(b, o.outsAt[id][i]) {
				t.Errorf("node %d: result block %d changed after it was returned", id, i)
			}
		}
	}
}

func clones(blocks []*matrix.Dense) []*matrix.Dense {
	out := make([]*matrix.Dense, len(blocks))
	for i, b := range blocks {
		out[i] = b.Clone()
	}
	return out
}

// laterSteps runs, after the collective under test, the collectives
// that write buffers — a reduce-scatter, which sums into the payloads
// it receives, and a reduce, which sums into its accumulator — over
// the blocks the first one returned. A returned view that shared a
// buffer with anything they write would change under ownership.check.
func laterSteps(c Comm, blocks []*matrix.Dense) {
	c.ReduceScatter(2, blocks)
	c.Reduce(3, 0, blocks[0])
}
