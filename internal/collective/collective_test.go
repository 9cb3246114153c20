package collective

import (
	"fmt"
	"testing"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// chainOf returns a full-machine chain (all cube dimensions).
func chainOf(p int) hypercube.Chain {
	d := hypercube.Log2(p)
	dims := make([]int, d)
	for i := range dims {
		dims[i] = i
	}
	return hypercube.NewChain(0, dims)
}

func newMach(p int, ports simnet.PortModel, ts, tw float64) *simnet.Machine {
	return simnet.NewMachine(simnet.Config{P: p, Ports: ports, Ts: ts, Tw: tw, Tc: 0})
}

// posBlock builds a recognizable block for a position.
func posBlock(rows, cols, pos, salt int) *matrix.Dense {
	b := matrix.New(rows, cols)
	for i := range b.Data {
		b.Data[i] = float64(pos*1000 + salt*100000 + i)
	}
	return b
}

var portModels = []simnet.PortModel{simnet.OnePort, simnet.MultiPort}

func TestBcastContent(t *testing.T) {
	for _, pm := range portModels {
		for _, q := range []int{1, 2, 4, 8, 16} {
			for root := 0; root < q; root += max(1, q/3) {
				m := newMach(q, pm, 1, 1)
				ch := chainOf(q)
				want := posBlock(3, 5, root, 1)
				m.Run(func(n *simnet.Node) {
					c := On(n, ch)
					var blk *matrix.Dense
					if c.Pos() == root {
						blk = want
					}
					got := c.Bcast(1, root, 3, 5, blk)
					if !matrix.Equal(got, want) {
						t.Errorf("%v q=%d root=%d pos=%d: bcast content wrong", pm, q, root, c.Pos())
					}
				})
			}
		}
	}
}

func TestScatterGatherContent(t *testing.T) {
	for _, pm := range portModels {
		for _, q := range []int{2, 4, 8} {
			for root := 0; root < q; root += max(1, q/2) {
				m := newMach(q, pm, 1, 1)
				ch := chainOf(q)
				blocks := make([]*matrix.Dense, q)
				for j := range blocks {
					blocks[j] = posBlock(2, 4, j, 2)
				}
				m.Run(func(n *simnet.Node) {
					c := On(n, ch)
					var in []*matrix.Dense
					if c.Pos() == root {
						in = blocks
					}
					mine := c.Scatter(2, root, 2, 4, in)
					if !matrix.Equal(mine, blocks[c.Pos()]) {
						t.Errorf("%v q=%d root=%d pos=%d: scatter wrong", pm, q, root, c.Pos())
					}
					// Round-trip: gather the scattered pieces back.
					back := c.Gather(3, root, mine)
					if c.Pos() == root {
						for j := range back {
							if !matrix.Equal(back[j], blocks[j]) {
								t.Errorf("%v q=%d: gather block %d wrong", pm, q, j)
							}
						}
					} else if back != nil {
						t.Errorf("non-root returned gather result")
					}
				})
			}
		}
	}
}

func TestAllGatherContent(t *testing.T) {
	for _, pm := range portModels {
		for _, q := range []int{1, 2, 4, 8, 16} {
			m := newMach(q, pm, 1, 1)
			ch := chainOf(q)
			m.Run(func(n *simnet.Node) {
				c := On(n, ch)
				all := c.AllGather(4, posBlock(3, 3, c.Pos(), 3))
				if len(all) != q {
					t.Errorf("allgather returned %d blocks", len(all))
				}
				for j := range all {
					if !matrix.Equal(all[j], posBlock(3, 3, j, 3)) {
						t.Errorf("%v q=%d pos=%d: allgather block %d wrong", pm, q, c.Pos(), j)
					}
				}
			})
		}
	}
}

func TestReduceContent(t *testing.T) {
	for _, pm := range portModels {
		for _, q := range []int{2, 4, 8} {
			for root := 0; root < q; root += max(1, q-1) {
				m := newMach(q, pm, 1, 1)
				ch := chainOf(q)
				want := matrix.New(2, 3)
				for j := 0; j < q; j++ {
					want.AddInto(posBlock(2, 3, j, 4))
				}
				m.Run(func(n *simnet.Node) {
					c := On(n, ch)
					got := c.Reduce(5, root, posBlock(2, 3, c.Pos(), 4))
					if c.Pos() == root {
						if matrix.MaxAbsDiff(got, want) > 1e-9 {
							t.Errorf("%v q=%d root=%d: reduce sum wrong", pm, q, root)
						}
					} else if got != nil {
						t.Errorf("non-root got reduce result")
					}
				})
			}
		}
	}
}

func TestReduceScatterContent(t *testing.T) {
	for _, pm := range portModels {
		for _, q := range []int{2, 4, 8} {
			m := newMach(q, pm, 1, 1)
			ch := chainOf(q)
			m.Run(func(n *simnet.Node) {
				c := On(n, ch)
				blocks := make([]*matrix.Dense, q)
				for j := range blocks {
					blocks[j] = posBlock(2, 2, 10*c.Pos()+j, 0)
				}
				got := c.ReduceScatter(6, blocks)
				want := matrix.New(2, 2)
				for o := 0; o < q; o++ {
					want.AddInto(posBlock(2, 2, 10*o+c.Pos(), 0))
				}
				if matrix.MaxAbsDiff(got, want) > 1e-9 {
					t.Errorf("%v q=%d pos=%d: reduce-scatter wrong", pm, q, c.Pos())
				}
			})
		}
	}
}

func TestAllToAllContent(t *testing.T) {
	for _, pm := range portModels {
		for _, q := range []int{2, 4, 8, 16} {
			m := newMach(q, pm, 1, 1)
			ch := chainOf(q)
			m.Run(func(n *simnet.Node) {
				c := On(n, ch)
				blocks := make([]*matrix.Dense, q)
				for j := range blocks {
					blocks[j] = posBlock(2, 2, 100*c.Pos()+j, 0)
				}
				got := c.AllToAll(7, blocks)
				for o := 0; o < q; o++ {
					want := posBlock(2, 2, 100*o+c.Pos(), 0)
					if !matrix.Equal(got[o], want) {
						t.Errorf("%v q=%d pos=%d: piece from %d wrong", pm, q, c.Pos(), o)
					}
				}
			})
		}
	}
}

// measure runs a collective with (ts=1,tw=0) and (ts=0,tw=1) and returns
// the elapsed times: the measured (a, b) cost coefficients.
func measure(t *testing.T, q int, pm simnet.PortModel, prog func(c Comm)) (a, b float64) {
	t.Helper()
	ch := chainOf(q)
	for i, cfg := range []struct{ ts, tw float64 }{{1, 0}, {0, 1}} {
		m := newMach(q, pm, cfg.ts, cfg.tw)
		rs := m.Run(func(n *simnet.Node) { prog(On(n, ch)) })
		if i == 0 {
			a = rs.Elapsed
		} else {
			b = rs.Elapsed
		}
	}
	return a, b
}

func approxEq(x, y float64) bool {
	d := x - y
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+y)
}

// Table 1 cost checks: each collective's measured (t_s, t_w)
// coefficients must match the paper's optimal expressions.
func TestTable1Costs(t *testing.T) {
	const q, M = 8, 96 // M divisible by log q so multi-port slices are even
	logq := 3.0
	cases := []struct {
		name  string
		pm    simnet.PortModel
		wantA float64
		wantB float64
		run   func(c Comm)
	}{
		{"Bcast/one-port", simnet.OnePort, logq, float64(M) * logq, func(c Comm) {
			var blk *matrix.Dense
			if c.Pos() == 0 {
				blk = posBlock(8, 12, 0, 0)
			}
			c.Bcast(1, 0, 8, 12, blk)
		}},
		{"Bcast/multi-port", simnet.MultiPort, logq, float64(M), func(c Comm) {
			var blk *matrix.Dense
			if c.Pos() == 0 {
				blk = posBlock(8, 12, 0, 0)
			}
			c.Bcast(1, 0, 8, 12, blk)
		}},
		{"Scatter/one-port", simnet.OnePort, logq, float64((q - 1) * M), func(c Comm) {
			var in []*matrix.Dense
			if c.Pos() == 0 {
				in = make([]*matrix.Dense, q)
				for j := range in {
					in[j] = posBlock(8, 12, j, 0)
				}
			}
			c.Scatter(1, 0, 8, 12, in)
		}},
		{"Scatter/multi-port", simnet.MultiPort, logq, float64((q-1)*M) / logq, func(c Comm) {
			var in []*matrix.Dense
			if c.Pos() == 0 {
				in = make([]*matrix.Dense, q)
				for j := range in {
					in[j] = posBlock(8, 12, j, 0)
				}
			}
			c.Scatter(1, 0, 8, 12, in)
		}},
		{"AllGather/one-port", simnet.OnePort, logq, float64((q - 1) * M), func(c Comm) {
			c.AllGather(1, posBlock(8, 12, c.Pos(), 0))
		}},
		{"AllGather/multi-port", simnet.MultiPort, logq, float64((q-1)*M) / logq, func(c Comm) {
			c.AllGather(1, posBlock(8, 12, c.Pos(), 0))
		}},
		{"Reduce/one-port", simnet.OnePort, logq, float64(M) * logq, func(c Comm) {
			c.Reduce(1, 0, posBlock(8, 12, c.Pos(), 0))
		}},
		{"Reduce/multi-port", simnet.MultiPort, logq, float64(M), func(c Comm) {
			c.Reduce(1, 0, posBlock(8, 12, c.Pos(), 0))
		}},
		{"ReduceScatter/one-port", simnet.OnePort, logq, float64((q - 1) * M), func(c Comm) {
			blocks := make([]*matrix.Dense, q)
			for j := range blocks {
				blocks[j] = posBlock(8, 12, j, c.Pos())
			}
			c.ReduceScatter(1, blocks)
		}},
		{"ReduceScatter/multi-port", simnet.MultiPort, logq, float64((q-1)*M) / logq, func(c Comm) {
			blocks := make([]*matrix.Dense, q)
			for j := range blocks {
				blocks[j] = posBlock(8, 12, j, c.Pos())
			}
			c.ReduceScatter(1, blocks)
		}},
		{"AllToAll/one-port", simnet.OnePort, logq, float64(q*M) * logq / 2, func(c Comm) {
			blocks := make([]*matrix.Dense, q)
			for j := range blocks {
				blocks[j] = posBlock(8, 12, j, c.Pos())
			}
			c.AllToAll(1, blocks)
		}},
		{"AllToAll/multi-port", simnet.MultiPort, logq, float64(q*M) / 2, func(c Comm) {
			blocks := make([]*matrix.Dense, q)
			for j := range blocks {
				blocks[j] = posBlock(8, 12, j, c.Pos())
			}
			c.AllToAll(1, blocks)
		}},
		{"Gather/one-port", simnet.OnePort, logq, float64((q - 1) * M), func(c Comm) {
			c.Gather(1, 0, posBlock(8, 12, c.Pos(), 0))
		}},
		{"Gather/multi-port", simnet.MultiPort, logq, float64((q-1)*M) / logq, func(c Comm) {
			c.Gather(1, 0, posBlock(8, 12, c.Pos(), 0))
		}},
	}
	for _, tc := range cases {
		a, b := measure(t, q, tc.pm, tc.run)
		if !approxEq(a, tc.wantA) || !approxEq(b, tc.wantB) {
			t.Errorf("%s: measured (a,b)=(%g,%g), Table 1 says (%g,%g)", tc.name, a, b, tc.wantA, tc.wantB)
		}
	}
}

// TestFusedOverlap checks that two collectives on disjoint grid
// dimensions overlap on a multi-port machine and serialize on a
// one-port machine — the paper's "the two broadcasts can occur in
// parallel".
func TestFusedOverlap(t *testing.T) {
	const q = 4
	p := q * q
	g := hypercube.NewGrid2D(p)
	blkFor := func(pos int) *matrix.Dense { return posBlock(4, 8, pos, 0) }
	run := func(pm simnet.PortModel, ts, tw float64) float64 {
		m := newMach(p, pm, ts, tw)
		rs := m.Run(func(n *simnet.Node) {
			i, j := g.Coords(n.ID)
			rowC := On(n, g.RowChain(i))
			colC := On(n, g.ColChain(j))
			opA := rowC.NewAllGather(1, blkFor(j))
			opB := colC.NewAllGather(2, blkFor(i))
			Run(opA, opB)
			ra, rb := opA.Result(), opB.Result()
			for x := 0; x < q; x++ {
				if !matrix.Equal(ra[x], blkFor(x)) || !matrix.Equal(rb[x], blkFor(x)) {
					t.Errorf("fused allgather content wrong at (%d,%d)", i, j)
				}
			}
		})
		return rs.Elapsed
	}
	const M = 32
	logq := 2.0
	// One-port: the two all-gathers serialize: b = 2*(q-1)*M.
	if b := run(simnet.OnePort, 0, 1); !approxEq(b, 2*float64((q-1)*M)) {
		t.Errorf("one-port fused b = %g, want %g", b, 2*float64((q-1)*M))
	}
	// Multi-port: they overlap fully: b = (q-1)*M/logq.
	if b := run(simnet.MultiPort, 0, 1); !approxEq(b, float64((q-1)*M)/logq) {
		t.Errorf("multi-port fused b = %g, want %g", b, float64((q-1)*M)/logq)
	}
}

// TestSmallMessageMultiPort exercises ragged/empty slices: messages
// smaller than log q words must still be delivered correctly.
func TestSmallMessageMultiPort(t *testing.T) {
	const q = 16 // d = 4 slices of a 2-word message: two slices empty
	m := newMach(q, simnet.MultiPort, 1, 1)
	ch := chainOf(q)
	m.Run(func(n *simnet.Node) {
		c := On(n, ch)
		all := c.AllGather(9, posBlock(1, 2, c.Pos(), 5))
		for j := range all {
			if !matrix.Equal(all[j], posBlock(1, 2, j, 5)) {
				t.Errorf("small-message allgather block %d wrong at pos %d", j, c.Pos())
			}
		}
	})
}

func TestCommAccessors(t *testing.T) {
	m := newMach(8, simnet.OnePort, 1, 1)
	ch := chainOf(8)
	m.Run(func(n *simnet.Node) {
		c := On(n, ch)
		if c.Q() != 8 {
			t.Errorf("Q = %d", c.Q())
		}
		if c.Rank() != hypercube.Gray(c.Pos()) {
			t.Errorf("rank/pos inconsistent")
		}
	})
}

// TestSubsetsSorted: ranging upward with within enumerates the subset
// cube base XOR span(mask) in ascending order, the order pieces are
// packed in.
func TestSubsetsSorted(t *testing.T) {
	subsets := func(base, mask int) []int {
		var out []int
		for r := 0; r < 8; r++ {
			if within(r, base, mask) {
				out = append(out, r)
			}
		}
		return out
	}
	got := subsets(0b110, 0b011)
	want := []int{0b100, 0b101, 0b110, 0b111}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("subsets = %v, want %v", got, want)
	}
	if got := subsets(5, 0); fmt.Sprint(got) != "[5]" {
		t.Errorf("subsets with no bits = %v, want [5]", got)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestCollectiveValidationPanics(t *testing.T) {
	m := newMach(4, simnet.OnePort, 1, 1)
	ch := chainOf(4)
	mustPanic := func(name string, f func(c Comm)) {
		m.Run(func(n *simnet.Node) {
			if n.ID != 0 {
				return
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(On(n, ch))
		})
	}
	mustPanic("Bcast root without block", func(c Comm) {
		c.NewBcast(1, 0, 2, 2, nil)
	})
	mustPanic("Scatter wrong count", func(c Comm) {
		c.NewScatter(1, 0, 2, 2, []*matrix.Dense{posBlock(2, 2, 0, 0)})
	})
	mustPanic("Scatter wrong shape", func(c Comm) {
		blocks := []*matrix.Dense{posBlock(3, 3, 0, 0), posBlock(3, 3, 1, 0), posBlock(3, 3, 2, 0), posBlock(3, 3, 3, 0)}
		c.NewScatter(1, 0, 2, 2, blocks)
	})
	mustPanic("ReduceScatter wrong count", func(c Comm) {
		c.NewReduceScatter(1, []*matrix.Dense{posBlock(2, 2, 0, 0)})
	})
	mustPanic("ReduceScatter non-uniform", func(c Comm) {
		c.NewReduceScatter(1, []*matrix.Dense{posBlock(2, 2, 0, 0), posBlock(3, 3, 1, 0), posBlock(2, 2, 2, 0), posBlock(2, 2, 3, 0)})
	})
	mustPanic("AllToAll wrong count", func(c Comm) {
		c.NewAllToAll(1, []*matrix.Dense{posBlock(2, 2, 0, 0)})
	})
	mustPanic("checkUniform all nil", func(c Comm) {
		c.NewReduceScatter(1, make([]*matrix.Dense, 4))
	})
}
