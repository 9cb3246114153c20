package matrix

import "fmt"

// This file implements the block partitioners the paper's algorithms are
// written in terms of:
//
//   - the q x q block grid of Figure 1 (Simple, Cannon, HJE, DNS, 3DD),
//   - row groups and column groups (Berntsen, 2-D Diagonal),
//   - the general qr x qc grid used by the 3-D All family, where A is
//     partitioned into cbrt(p) x p^(2/3) blocks (Figure 8) and B into
//     p^(2/3) x cbrt(p) blocks (Figure 9).
//
// All partitioners require exact divisibility and panic otherwise: the
// algorithms in this repository pad nothing, exactly as in the paper
// (which assumes p | n in the appropriate powers).

// Block returns a copy of the submatrix rows [r0,r1) x cols [c0,c1).
func (m *Dense) Block(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: Block [%d:%d,%d:%d) out of range %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	b := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(b.Data[(i-r0)*b.Cols:(i-r0+1)*b.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return b
}

// SetBlock writes blk into m with its top-left corner at (r0, c0).
func (m *Dense) SetBlock(r0, c0 int, blk *Dense) {
	if r0 < 0 || c0 < 0 || r0+blk.Rows > m.Rows || c0+blk.Cols > m.Cols {
		panic(fmt.Sprintf("matrix: SetBlock %dx%d at (%d,%d) out of range %dx%d", blk.Rows, blk.Cols, r0, c0, m.Rows, m.Cols))
	}
	for i := 0; i < blk.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+blk.Cols], blk.Data[i*blk.Cols:(i+1)*blk.Cols])
	}
}

// AddBlock accumulates blk into m at (r0, c0): m[r0:,c0:] += blk.
func (m *Dense) AddBlock(r0, c0 int, blk *Dense) {
	if r0 < 0 || c0 < 0 || r0+blk.Rows > m.Rows || c0+blk.Cols > m.Cols {
		panic(fmt.Sprintf("matrix: AddBlock %dx%d at (%d,%d) out of range %dx%d", blk.Rows, blk.Cols, r0, c0, m.Rows, m.Cols))
	}
	for i := 0; i < blk.Rows; i++ {
		dst := m.Data[(r0+i)*m.Cols+c0 : (r0+i)*m.Cols+c0+blk.Cols]
		src := blk.Data[i*blk.Cols : (i+1)*blk.Cols]
		for j, v := range src {
			dst[j] += v
		}
	}
}

func mustDivide(what string, n, q int) int {
	if q <= 0 || n%q != 0 {
		panic(fmt.Sprintf("matrix: %s: %d not divisible by %d", what, n, q))
	}
	return n / q
}

// GridBlock returns block (i,j) of m partitioned into a qr x qc grid of
// equal blocks (rows split qr ways, columns qc ways).
func (m *Dense) GridBlock(qr, qc, i, j int) *Dense {
	br := mustDivide("GridBlock rows", m.Rows, qr)
	bc := mustDivide("GridBlock cols", m.Cols, qc)
	if i < 0 || i >= qr || j < 0 || j >= qc {
		panic(fmt.Sprintf("matrix: GridBlock index (%d,%d) out of grid %dx%d", i, j, qr, qc))
	}
	return m.Block(i*br, (i+1)*br, j*bc, (j+1)*bc)
}

// SetGridBlock writes blk as block (i,j) of the qr x qc partition of m.
func (m *Dense) SetGridBlock(qr, qc, i, j int, blk *Dense) {
	br := mustDivide("SetGridBlock rows", m.Rows, qr)
	bc := mustDivide("SetGridBlock cols", m.Cols, qc)
	if blk.Rows != br || blk.Cols != bc {
		panic(fmt.Sprintf("matrix: SetGridBlock got %dx%d want %dx%d", blk.Rows, blk.Cols, br, bc))
	}
	m.SetBlock(i*br, j*bc, blk)
}

// AddGridBlock accumulates blk into block (i,j) of the qr x qc partition.
func (m *Dense) AddGridBlock(qr, qc, i, j int, blk *Dense) {
	br := mustDivide("AddGridBlock rows", m.Rows, qr)
	bc := mustDivide("AddGridBlock cols", m.Cols, qc)
	if blk.Rows != br || blk.Cols != bc {
		panic(fmt.Sprintf("matrix: AddGridBlock got %dx%d want %dx%d", blk.Rows, blk.Cols, br, bc))
	}
	m.AddBlock(i*br, j*bc, blk)
}

// RowGroup returns the i-th of q equal horizontal slabs of m.
func (m *Dense) RowGroup(q, i int) *Dense {
	br := mustDivide("RowGroup", m.Rows, q)
	if i < 0 || i >= q {
		panic(fmt.Sprintf("matrix: RowGroup index %d out of %d", i, q))
	}
	return m.Block(i*br, (i+1)*br, 0, m.Cols)
}

// ColGroup returns the j-th of q equal vertical slabs of m.
func (m *Dense) ColGroup(q, j int) *Dense {
	bc := mustDivide("ColGroup", m.Cols, q)
	if j < 0 || j >= q {
		panic(fmt.Sprintf("matrix: ColGroup index %d out of %d", j, q))
	}
	return m.Block(0, m.Rows, j*bc, (j+1)*bc)
}

// NewBatch returns q zeroed r x c matrices carved out of one backing
// allocation: three allocations total instead of 2q. The blocks are
// independent views of disjoint ranges, so they can be filled, sent and
// multiplied like individually allocated matrices; they merely share a
// backing array's lifetime. Hot per-node assembly paths (multi-port
// collective results, grid splits) use it to keep the emulator's
// allocation rate flat in q.
func NewBatch(q, r, c int) []*Dense {
	if q < 0 {
		panic(fmt.Sprintf("matrix: NewBatch negative count %d", q))
	}
	return carve(make([]float64, q*r*c), q, r, c)
}

// carve returns q r x c matrices viewing consecutive, capacity-bounded
// ranges of data, with one allocation for all their headers.
func carve(data []float64, q, r, c int) []*Dense {
	ds := make([]Dense, q)
	out := make([]*Dense, q)
	w := r * c
	for i := range ds {
		ds[i] = Dense{Rows: r, Cols: c, Data: data[i*w : (i+1)*w : (i+1)*w]}
		out[i] = &ds[i]
	}
	return out
}

// RowGroups splits m into its q equal horizontal slabs. Row groups of a
// row-major matrix are contiguous, so the slabs are views of m's data,
// not copies: writing one writes m.
func (m *Dense) RowGroups(q int) []*Dense {
	return carve(m.Data, q, mustDivide("RowGroups", m.Rows, q), m.Cols)
}

// GridBlocks partitions m into its full qr x qc grid of equal blocks,
// all carved from one batch allocation (cheaper than qr*qc GridBlock
// calls); out[i][j] is block (i,j).
func (m *Dense) GridBlocks(qr, qc int) [][]*Dense {
	br := mustDivide("GridBlocks rows", m.Rows, qr)
	bc := mustDivide("GridBlocks cols", m.Cols, qc)
	flat := NewBatch(qr*qc, br, bc)
	out := make([][]*Dense, qr)
	for i := range out {
		out[i] = flat[i*qc : (i+1)*qc]
		for j, b := range out[i] {
			for r := 0; r < br; r++ {
				copy(b.Data[r*bc:(r+1)*bc], m.Data[(i*br+r)*m.Cols+j*bc:(i*br+r)*m.Cols+(j+1)*bc])
			}
		}
	}
	return out
}

// ConcatCols lays blocks side by side (same row counts) into one matrix.
func ConcatCols(blocks ...*Dense) *Dense {
	if len(blocks) == 0 {
		return New(0, 0)
	}
	rows, cols := blocks[0].Rows, 0
	for _, b := range blocks {
		if b.Rows != rows {
			panic(fmt.Sprintf("matrix: ConcatCols row mismatch %d vs %d", b.Rows, rows))
		}
		cols += b.Cols
	}
	out := New(rows, cols)
	at := 0
	for _, b := range blocks {
		out.SetBlock(0, at, b)
		at += b.Cols
	}
	return out
}

// ConcatRows stacks blocks vertically (same column counts) into one matrix.
func ConcatRows(blocks ...*Dense) *Dense {
	if len(blocks) == 0 {
		return New(0, 0)
	}
	cols, rows := blocks[0].Cols, 0
	for _, b := range blocks {
		if b.Cols != cols {
			panic(fmt.Sprintf("matrix: ConcatRows col mismatch %d vs %d", b.Cols, cols))
		}
		rows += b.Rows
	}
	out := New(rows, cols)
	at := 0
	for _, b := range blocks {
		out.SetBlock(at, 0, b)
		at += b.Rows
	}
	return out
}

// AssembleGrid reconstructs a matrix from a grid of equal-shaped blocks,
// blocks[i][j] being the block in block-row i, block-column j.
func AssembleGrid(blocks [][]*Dense) *Dense {
	if len(blocks) == 0 || len(blocks[0]) == 0 {
		return New(0, 0)
	}
	br, bc := blocks[0][0].Rows, blocks[0][0].Cols
	qr, qc := len(blocks), len(blocks[0])
	out := New(qr*br, qc*bc)
	for i, row := range blocks {
		if len(row) != qc {
			panic("matrix: AssembleGrid ragged grid")
		}
		for j, b := range row {
			if b.Rows != br || b.Cols != bc {
				panic(fmt.Sprintf("matrix: AssembleGrid block (%d,%d) is %dx%d want %dx%d", i, j, b.Rows, b.Cols, br, bc))
			}
			out.SetBlock(i*br, j*bc, b)
		}
	}
	return out
}

// F is the linear index f(i,j) = i*q + j of the 3-D All partition: block
// column f(i,j) of A (Figure 8) lives on processor column (i,j) of the
// virtual 3-D grid with q processors per axis.
func F(q, i, j int) int { return i*q + j }

// FInv inverts F: given the linear index l, it returns (i, j) with
// l = i*q + j.
func FInv(q, l int) (i, j int) { return l / q, l % q }
