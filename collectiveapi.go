package hypermm

import (
	"fmt"

	"hypermm/internal/collective"
	"hypermm/internal/cost"
	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Collective identifies a collective communication pattern of the
// paper's Table 1.
type Collective int

// The Table 1 patterns, plus the two reductions the paper uses (which
// are the communication inverses of the broadcasts).
const (
	OneToAllBcast Collective = iota
	OneToAllPersonalized
	AllToAllBcast
	AllToAllPersonalized
	AllToOneReduce
	AllToAllReduce
)

// Collectives lists the Table 1 rows in order.
var Collectives = []Collective{
	OneToAllBcast, OneToAllPersonalized, AllToAllBcast, AllToAllPersonalized,
	AllToOneReduce, AllToAllReduce,
}

// String implements fmt.Stringer with the paper's names.
func (c Collective) String() string { return c.internal().String() }

func (c Collective) internal() cost.Collective {
	switch c {
	case OneToAllBcast:
		return cost.OneToAllBcast
	case OneToAllPersonalized:
		return cost.OneToAllPersonalized
	case AllToAllBcast:
		return cost.AllToAllBcast
	case AllToAllPersonalized:
		return cost.AllToAllPersonalized
	case AllToOneReduce:
		return cost.AllToOneReduce
	case AllToAllReduce:
		return cost.AllToAllReduce
	default:
		panic(fmt.Sprintf("hypermm: invalid Collective(%d)", int(c)))
	}
}

// CollectiveCost returns Table 1's optimal cost coefficients (a, b) —
// time = t_s*a + t_w*b — for the pattern on an N-processor hypercube
// with M-word messages. The multi-port figures assume M >= log N. It
// has no ok result: it panics on an out-of-range Collective or
// PortModel.
func CollectiveCost(c Collective, N, M float64, ports PortModel) (a, b float64) {
	return cost.CollectiveCost(c.internal(), N, M, ports.internal())
}

// MeasuredCollective runs the pattern on the message-level emulator
// (N-node subcube, M-word messages) with (t_s, t_w) = (1, 0) and (0, 1)
// and returns the measured coefficients — the empirical counterpart of
// CollectiveCost.
func MeasuredCollective(c Collective, N, M int, ports PortModel) (a, b float64, err error) {
	if err := (simnet.Config{P: N, Ports: simnet.PortModel(ports)}).Validate(); err != nil {
		return 0, 0, err
	}
	if M <= 0 {
		return 0, 0, fmt.Errorf("hypermm: M=%d must be positive", M)
	}
	d := hypercube.Log2(N)
	ds := make([]int, d)
	for i := range ds {
		ds[i] = i
	}
	ch := hypercube.NewChain(0, ds)
	blockFor := func(pos int) *matrix.Dense {
		blk := matrix.New(1, M)
		for i := range blk.Data {
			blk.Data[i] = float64(pos*1000 + i)
		}
		return blk
	}
	prog := func(nd *simnet.Node) {
		cm := collective.On(nd, ch)
		switch c {
		case OneToAllBcast:
			var blk *matrix.Dense
			if cm.Pos() == 0 {
				blk = blockFor(0)
			}
			cm.Bcast(1, 0, 1, M, blk)
		case OneToAllPersonalized:
			var blocks []*matrix.Dense
			if cm.Pos() == 0 {
				blocks = make([]*matrix.Dense, N)
				for j := range blocks {
					blocks[j] = blockFor(j)
				}
			}
			cm.Scatter(1, 0, 1, M, blocks)
		case AllToAllBcast:
			cm.AllGather(1, blockFor(cm.Pos()))
		case AllToAllPersonalized:
			blocks := make([]*matrix.Dense, N)
			for j := range blocks {
				blocks[j] = blockFor(j)
			}
			cm.AllToAll(1, blocks)
		case AllToOneReduce:
			cm.Reduce(1, 0, blockFor(cm.Pos()))
		case AllToAllReduce:
			blocks := make([]*matrix.Dense, N)
			for j := range blocks {
				blocks[j] = blockFor(j)
			}
			cm.ReduceScatter(1, blocks)
		}
	}
	for i, pair := range [][2]float64{{1, 0}, {0, 1}} {
		m := simnet.NewMachine(simnet.Config{P: N, Ports: ports.internal(), Ts: pair[0], Tw: pair[1]})
		rs, err := m.RunErr(prog)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			a = rs.Elapsed
		} else {
			b = rs.Elapsed
		}
	}
	return a, b, nil
}
