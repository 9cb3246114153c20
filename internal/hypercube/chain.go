package hypercube

import "fmt"

// Chain is a one-dimensional line of q = 2^d grid positions embedded as
// a d-dimensional subcube of the machine. It is the unit on which every
// collective communication pattern in the paper runs ("any collective
// communication pattern ... is along a one-dimensional chain of
// processors", Section 2).
//
// Two coordinate systems coexist on a chain:
//
//   - position: the grid coordinate 0..q-1. Consecutive positions
//     (including the wrap-around) are physical neighbors because
//     positions are embedded by Gray code. Ring shifts (Cannon) use
//     positions.
//   - rank: the d-bit subcube coordinate, i.e. the chain's physical
//     address bits read directly. Rank r and rank r^(1<<s) are physical
//     neighbors across the chain's s-th dimension. Subcube collectives
//     (broadcast, all-gather, ...) use ranks.
//
// rank = Gray(position); position = GrayRank(rank).
type Chain struct {
	dims []int // dims[s] = physical cube dimension carrying rank bit s
	base int   // the fixed address bits outside dims
}

// NewChain builds a chain spanning the given physical dimensions (low
// rank bit first) with the remaining address bits fixed to base. The
// base must have zero bits in all spanned dimensions.
func NewChain(base int, dims []int) Chain {
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("hypercube: negative chain dimension %d", d))
		}
		if base&(1<<d) != 0 {
			panic(fmt.Sprintf("hypercube: chain base %#x has a bit in spanned dimension %d", base, d))
		}
	}
	cp := make([]int, len(dims))
	copy(cp, dims)
	return Chain{dims: cp, base: base}
}

// spanDims backs every contiguous chain's dims: span hands out
// read-only windows of it instead of allocating.
var spanDims = func() (ds [63]int) {
	for s := range ds {
		ds[s] = s
	}
	return ds
}()

// span is NewChain over the contiguous dimensions lo .. lo+n-1, without
// allocating: its dims are a shared window of spanDims.
func span(base, lo, n int) Chain {
	ch := Chain{dims: spanDims[lo : lo+n : lo+n], base: base}
	if base&ch.mask() != 0 {
		panic(fmt.Sprintf("hypercube: chain base %#x has a bit in spanned dimensions %d..%d", base, lo, lo+n-1))
	}
	return ch
}

// Q returns the number of nodes on the chain.
func (ch Chain) Q() int { return 1 << len(ch.dims) }

// Dim returns log2(Q), the subcube dimensionality of the chain.
func (ch Chain) Dim() int { return len(ch.dims) }

// PhysDim returns the physical cube dimension carrying rank bit s.
func (ch Chain) PhysDim(s int) int {
	if s < 0 || s >= len(ch.dims) {
		panic(fmt.Sprintf("hypercube: chain bit %d out of %d", s, len(ch.dims)))
	}
	return ch.dims[s]
}

// spread places the low len(dims) bits of rank into the chain's
// physical dimensions.
func (ch Chain) spread(rank int) int {
	a := 0
	for s, d := range ch.dims {
		if rank&(1<<s) != 0 {
			a |= 1 << d
		}
	}
	return a
}

// collect extracts the chain rank from a physical node address.
func (ch Chain) collect(node int) int {
	r := 0
	for s, d := range ch.dims {
		if node&(1<<d) != 0 {
			r |= 1 << s
		}
	}
	return r
}

// NodeAtRank returns the physical address of the node with the given
// subcube rank.
func (ch Chain) NodeAtRank(rank int) int {
	if rank < 0 || rank >= ch.Q() {
		panic(fmt.Sprintf("hypercube: chain rank %d out of %d", rank, ch.Q()))
	}
	return ch.base | ch.spread(rank)
}

// NodeAt returns the physical address of the node at the given grid
// position (Gray-embedded).
func (ch Chain) NodeAt(pos int) int { return ch.NodeAtRank(Gray(pos)) }

// RankOf returns the subcube rank of a physical node on the chain.
func (ch Chain) RankOf(node int) int {
	if !ch.Contains(node) {
		panic(fmt.Sprintf("hypercube: node %d not on chain base %#x", node, ch.base))
	}
	return ch.collect(node)
}

// PosOf returns the grid position of a physical node on the chain.
func (ch Chain) PosOf(node int) int { return GrayRank(ch.RankOf(node)) }

// Contains reports whether the physical node lies on the chain.
func (ch Chain) Contains(node int) bool {
	return node&^ch.mask() == ch.base
}

func (ch Chain) mask() int {
	m := 0
	for _, d := range ch.dims {
		m |= 1 << d
	}
	return m
}

// RingStepDim returns the physical dimension connecting position pos to
// position (pos+1) mod Q — a single dimension by the Gray embedding.
func (ch Chain) RingStepDim(pos int) int {
	q := ch.Q()
	if pos < 0 || pos >= q {
		panic(fmt.Sprintf("hypercube: chain position %d out of %d", pos, q))
	}
	if pos == q-1 { // wrap-around: Gray(q-1) and Gray(0) differ in the top bit
		return ch.dims[len(ch.dims)-1]
	}
	return ch.dims[GrayStepBit(pos)]
}

// String implements fmt.Stringer for debugging.
func (ch Chain) String() string {
	return fmt.Sprintf("Chain{base=%#x dims=%v}", ch.base, ch.dims)
}

// Grid2D embeds a q x q virtual processor mesh into a hypercube of
// p = q^2 nodes: node(i,j) = Gray(i) in the high d dimensions and
// Gray(j) in the low d dimensions, so every row and every column is a
// d-dimensional subcube.
type Grid2D struct {
	Q   int // processors per side
	d   int // log2(Q)
	Cub Cube
}

// NewGrid2D builds the embedding for p = q^2 processors; p must be an
// even power of two.
func NewGrid2D(p int) Grid2D {
	d := Log2(p)
	if d%2 != 0 {
		panic(fmt.Sprintf("hypercube: Grid2D needs an even cube dimension, got p=%d", p))
	}
	return Grid2D{Q: 1 << (d / 2), d: d / 2, Cub: New(p)}
}

// Node returns the physical address of mesh processor (i, j) — row i,
// column j.
func (g Grid2D) Node(i, j int) int {
	g.chk(i)
	g.chk(j)
	return Gray(i)<<g.d | Gray(j)
}

func (g Grid2D) chk(c int) {
	if c < 0 || c >= g.Q {
		panic(fmt.Sprintf("hypercube: grid coordinate %d out of [0,%d)", c, g.Q))
	}
}

// Coords returns the mesh coordinates (i, j) of a physical node.
func (g Grid2D) Coords(node int) (i, j int) {
	return GrayRank(node >> g.d), GrayRank(node & (1<<g.d - 1))
}

// RowChain returns the chain of row i (j varies along the row).
func (g Grid2D) RowChain(i int) Chain {
	g.chk(i)
	return span(Gray(i)<<g.d, 0, g.d)
}

// ColChain returns the chain of column j (i varies along the column).
func (g Grid2D) ColChain(j int) Chain {
	g.chk(j)
	return span(Gray(j), g.d, g.d)
}

// Grid3D embeds a q x q x q virtual processor grid into a hypercube of
// p = q^3 nodes: node(i,j,k) carries Gray(i) in the high d dimensions
// (the paper's x axis), Gray(j) in the middle d (y), and Gray(k) in the
// low d (z). Every axis-parallel line is a d-dimensional subcube.
type Grid3D struct {
	Q   int
	d   int
	Cub Cube
}

// NewGrid3D builds the embedding for p = q^3 processors; the cube
// dimension must be a multiple of three.
func NewGrid3D(p int) Grid3D {
	d := Log2(p)
	if d%3 != 0 {
		panic(fmt.Sprintf("hypercube: Grid3D needs a cube dimension divisible by 3, got p=%d", p))
	}
	return Grid3D{Q: 1 << (d / 3), d: d / 3, Cub: New(p)}
}

// Node returns the physical address of grid processor p_{i,j,k}.
func (g Grid3D) Node(i, j, k int) int {
	g.chk(i)
	g.chk(j)
	g.chk(k)
	return Gray(i)<<(2*g.d) | Gray(j)<<g.d | Gray(k)
}

func (g Grid3D) chk(c int) {
	if c < 0 || c >= g.Q {
		panic(fmt.Sprintf("hypercube: grid coordinate %d out of [0,%d)", c, g.Q))
	}
}

// Coords returns the grid coordinates (i, j, k) of a physical node.
func (g Grid3D) Coords(node int) (i, j, k int) {
	m := 1<<g.d - 1
	return GrayRank(node >> (2 * g.d)), GrayRank((node >> g.d) & m), GrayRank(node & m)
}

// XChain returns the line with j, k fixed and i varying (the paper's
// x direction).
func (g Grid3D) XChain(j, k int) Chain {
	g.chk(j)
	g.chk(k)
	return span(Gray(j)<<g.d|Gray(k), 2*g.d, g.d)
}

// YChain returns the line with i, k fixed and j varying (y direction).
func (g Grid3D) YChain(i, k int) Chain {
	g.chk(i)
	g.chk(k)
	return span(Gray(i)<<(2*g.d)|Gray(k), g.d, g.d)
}

// ZChain returns the line with i, j fixed and k varying (z direction).
func (g Grid3D) ZChain(i, j int) Chain {
	g.chk(i)
	g.chk(j)
	return span(Gray(i)<<(2*g.d)|Gray(j)<<g.d, 0, g.d)
}

// GridRect embeds a Q x Qy x Q virtual grid into a hypercube of
// p = Q^2 Qy nodes the way Grid3D embeds a cube: Gray(i) in the high
// log Q dimensions (x), Gray(j) in the middle log Qy (y), Gray(k) in
// the low log Q (z). Qy = Q gives Grid3D's addresses. It is the grid of
// the rectangular 3-D All variant.
type GridRect struct {
	Q, Qy  int
	dq, dy int // log2 Q, log2 Qy
}

// NewGridRect builds the embedding for p processors with y extent qy:
// p and qy powers of two, p/qy an even power of two.
func NewGridRect(p, qy int) (GridRect, error) {
	if !IsPow2(p) || !IsPow2(qy) {
		return GridRect{}, fmt.Errorf("hypercube: p=%d and qy=%d must be powers of two", p, qy)
	}
	if p%qy != 0 {
		return GridRect{}, fmt.Errorf("hypercube: qy=%d does not divide p=%d", qy, p)
	}
	dq2 := Log2(p / qy)
	if dq2%2 != 0 {
		return GridRect{}, fmt.Errorf("hypercube: p/qy=%d is not a square power of two", p/qy)
	}
	return GridRect{Q: 1 << (dq2 / 2), Qy: qy, dq: dq2 / 2, dy: Log2(qy)}, nil
}

// Node returns the physical address of grid processor p_{i,j,k}.
func (g GridRect) Node(i, j, k int) int {
	return Gray(i)<<(g.dq+g.dy) | Gray(j)<<g.dq | Gray(k)
}

// Coords returns the grid coordinates (i, j, k) of a physical node.
func (g GridRect) Coords(node int) (i, j, k int) {
	return GrayRank(node >> (g.dq + g.dy)), GrayRank((node >> g.dq) & (1<<g.dy - 1)), GrayRank(node & (1<<g.dq - 1))
}

// Lines returns the x, y and z lines through a physical node.
func (g GridRect) Lines(node int) (x, y, z Chain) {
	return Line(node, g.dq+g.dy, g.dq), Line(node, g.dq, g.dy), Line(node, 0, g.dq)
}

// Supergrid views p = s*r nodes as a cbrt(s)^3 grid of supernodes, each
// a sqrt(r) x sqrt(r) mesh. A node's address is [Gray(I) | Gray(J) |
// Gray(K) | Gray(i) | Gray(j)], supernode coordinates high and mesh
// coordinates low, so every supernode-axis line and every mesh row and
// column is a subcube. It is the grid of the DNS+Cannon and 3DD+Cannon
// combinations; s = p is Grid3D and s = 1 is Grid2D.
type Supergrid struct {
	Qs, Qr int // supernodes per grid axis, mesh processors per mesh axis
	ds, dm int // log2 Qs, log2 Qr
}

// NewSupergrid builds the view for p processors in s supernodes: s a
// power of eight dividing p, and r = p/s a power of four.
func NewSupergrid(p, s int) (Supergrid, error) {
	if s <= 0 || p%s != 0 {
		return Supergrid{}, fmt.Errorf("hypercube: supernode count %d does not divide p=%d", s, p)
	}
	r := p / s
	if !IsPow2(s) || Log2(s)%3 != 0 {
		return Supergrid{}, fmt.Errorf("hypercube: s=%d is not a perfect cube power of two", s)
	}
	if !IsPow2(r) || Log2(r)%2 != 0 {
		return Supergrid{}, fmt.Errorf("hypercube: r=p/s=%d is not a perfect square power of two", r)
	}
	ds, dm := Log2(s)/3, Log2(r)/2
	return Supergrid{Qs: 1 << ds, Qr: 1 << dm, ds: ds, dm: dm}, nil
}

// Node returns the address of mesh processor (i, j) of supernode
// (I, J, K).
func (g Supergrid) Node(I, J, K, i, j int) int {
	return Gray(I)<<(2*g.ds+2*g.dm) | Gray(J)<<(g.ds+2*g.dm) | Gray(K)<<(2*g.dm) | Gray(i)<<g.dm | Gray(j)
}

// Coords inverts Node.
func (g Supergrid) Coords(node int) (I, J, K, i, j int) {
	ms, mm := 1<<g.ds-1, 1<<g.dm-1
	return GrayRank(node >> (2*g.ds + 2*g.dm) & ms),
		GrayRank(node >> (g.ds + 2*g.dm) & ms),
		GrayRank(node >> (2 * g.dm) & ms),
		GrayRank(node >> g.dm & mm),
		GrayRank(node & mm)
}

// Lines returns the chains through a physical node along the supernode
// axes x, y and z (the node's mesh position in every supernode of the
// line), and along its mesh row and column.
func (g Supergrid) Lines(node int) (x, y, z, row, col Chain) {
	return Line(node, 2*g.ds+2*g.dm, g.ds), Line(node, g.ds+2*g.dm, g.ds), Line(node, 2*g.dm, g.ds),
		Line(node, 0, g.dm), Line(node, g.dm, g.dm)
}

// Line returns the chain through a physical node that spans the w
// dimensions lo, ..., lo+w-1.
func Line(node, lo, w int) Chain {
	return span(node&^((1<<w-1)<<lo), lo, w)
}
