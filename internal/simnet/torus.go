package simnet

import (
	"fmt"
	"math/bits"
)

// Topology selects the machine's interconnect. The paper's analysis is
// hypercube-centric, but Section 3.2 observes that Cannon's
// shift-multiply-add phase "has the same performance on 2-D tori and
// hypercubes"; the torus topology makes that comparison runnable.
type Topology int

const (
	// Hypercube is the paper's 2-ary n-cube (the default).
	Hypercube Topology = iota
	// Torus2D is a Q x Q wraparound mesh with P = Q^2 nodes addressed
	// row-major (node = i*Q + j). Each node has four links (+x, -x,
	// +y, -y); a multi-port node drives all four at once. Multi-hop
	// transfers route x-first with shortest wrap direction.
	Torus2D
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	if t == Hypercube || t == Torus2D {
		return [...]string{"hypercube", "2-D torus"}[t]
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// Torus direction port indices.
const (
	torusXPlus = iota
	torusXMinus
	torusYPlus
	torusYMinus
	torusPorts
)

// TorusCoords splits a row-major torus address into (i, j).
func TorusCoords(node, q int) (i, j int) { return node / q, node % q }

// TorusNode builds a row-major torus address from (i, j), wrapping
// negative or overflowing coordinates.
func TorusNode(i, j, q int) int {
	i, j = ((i%q)+q)%q, ((j%q)+q)%q
	return i*q + j
}

// torusDelta returns the signed shortest displacement from a to b on a
// ring of q positions (positive = increasing coordinate).
func torusDelta(a, b, q int) int {
	d := ((b-a)%q + q) % q
	if d > q/2 {
		d -= q
	}
	return d
}

// torusHops returns the wrap-shortest Manhattan distance.
func (m *Machine) torusHops(src, dst int) int {
	si, sj := TorusCoords(src, m.torusQ)
	di, dj := TorusCoords(dst, m.torusQ)
	return abs(torusDelta(si, di, m.torusQ)) + abs(torusDelta(sj, dj, m.torusQ))
}

// torusPort returns the direction of the x-first route's first hop, or
// with last set of its last hop: the x leg (column coordinate) comes
// first, the y leg, if any, last.
func (m *Machine) torusPort(src, dst int, last bool) int {
	si, sj := TorusCoords(src, m.torusQ)
	di, dj := TorusCoords(dst, m.torusQ)
	dx, dy := torusDelta(sj, dj, m.torusQ), torusDelta(si, di, m.torusQ)
	switch {
	case last && dy == 0 || !last && dx != 0:
		if dx > 0 {
			return torusXPlus
		}
		return torusXMinus
	case dy > 0:
		return torusYPlus
	}
	return torusYMinus
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// hops returns the routing distance between two nodes under the
// machine's topology.
func (m *Machine) hops(src, dst int) int {
	if m.Cfg.Topology == Torus2D {
		return m.torusHops(src, dst)
	}
	return m.Cube.Hops(src, dst)
}

// outPort returns the sender-side port index of a transfer.
func (m *Machine) outPort(src, dst int) int {
	if m.Cfg.Topology == Torus2D {
		return m.torusPort(src, dst, false)
	}
	return bits.TrailingZeros(uint(src ^ dst))
}

// inPort returns the receiver-side port index of a transfer.
func (m *Machine) inPort(src, dst int) int {
	if m.Cfg.Topology == Torus2D {
		return m.torusPort(src, dst, true)
	}
	return bits.Len(uint(src^dst)) - 1
}

// numPorts returns the number of per-node link ports.
func (m *Machine) numPorts() int {
	if m.Cfg.Topology == Torus2D {
		return torusPorts
	}
	return m.Cube.Dim
}
