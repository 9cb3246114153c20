// Package matrix provides dense float64 matrices and the block
// partitioners used by the distributed matrix-multiplication algorithms:
// 2-D block grids (Figure 1 of the paper), row/column groups, and the
// f(i,j) partition of the 3-D All algorithm (Figures 8 and 9).
//
// A Dense matrix is stored in row-major order in a single contiguous
// slice. All operations are written for clarity first and use blocked
// loops where it matters for speed (Mul, MulAdd).
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a dense row-major matrix of float64.
// The zero value is an empty 0x0 matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed r x c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (row-major, length r*c) in a Dense without copying.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// Random returns an r x c matrix with entries drawn uniformly from
// [-1, 1) using the given seed. Deterministic for a fixed seed.
func Random(r, c int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Words returns the number of float64 words m occupies.
func (m *Dense) Words() int { return len(m.Data) }

// Zero sets every element of m to zero in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Add returns a+b. Panics if shapes differ.
func Add(a, b *Dense) *Dense {
	sameShape("Add", a, b)
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v + b.Data[i]
	}
	return c
}

// AddInto accumulates src into dst element-wise (dst += src).
func (dst *Dense) AddInto(src *Dense) {
	sameShape("AddInto", dst, src)
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// Sub returns a-b. Panics if shapes differ.
func Sub(a, b *Dense) *Dense {
	sameShape("Sub", a, b)
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v - b.Data[i]
	}
	return c
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

func sameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the product a*b using the packed register-tiled kernel.
func Mul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	MulAdd(c, a, b)
	return c
}

// MulAdd computes c += a*b with a packed, register-tiled kernel
// (kernel.go); large multiplies may draw extra workers from the shared
// pool bounded by SetParallelism. The result is bitwise identical to
// the reference triple loop at every parallelism level. Panics on
// inner-dimension or output-shape mismatch.
func MulAdd(c, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulAdd inner dim %d != %d", a.Cols, b.Rows))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulAdd output %dx%d != %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	mulAddKernel(c, a, b.Data, b.Cols)
}

// MulAddCols computes c += a*b[:, j0:j0+c.Cols], reading the column
// window of b in place. Every element sees exactly MulAdd's operation
// sequence, so splitting a product's output columns over several
// MulAddCols calls is bitwise identical to one MulAdd. Panics on
// inner-dimension mismatch or a window outside b.
func MulAddCols(c, a, b *Dense, j0 int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulAddCols inner dim %d != %d", a.Cols, b.Rows))
	}
	if c.Rows != a.Rows || j0 < 0 || j0+c.Cols > b.Cols {
		panic(fmt.Sprintf("matrix: MulAddCols output %dx%d at column %d of %dx%d", c.Rows, c.Cols, j0, a.Rows, b.Cols))
	}
	if b.Rows == 0 {
		return
	}
	mulAddKernel(c, a, b.Data[j0:], b.Cols)
}

// MulFlops returns the floating-point operation count (multiply-adds
// counted as 2 flops) of multiplying an rxk by a kxc matrix.
func MulFlops(r, k, c int) int64 {
	return 2 * int64(r) * int64(k) * int64(c)
}

// transposeBlock is the square tile edge for Transpose: 32x32 float64
// tiles (8 KiB source + 8 KiB destination) stay cache-resident, so the
// strided destination writes hit the same lines repeatedly instead of
// thrashing — the naive row sweep misses on every write once a row of
// the destination exceeds the cache (n >= 256 or so).
const transposeBlock = 32

// Transpose returns m transposed, tile by tile.
func (m *Dense) Transpose() *Dense {
	t := New(m.Cols, m.Rows)
	rows, cols := m.Rows, m.Cols
	for i0 := 0; i0 < rows; i0 += transposeBlock {
		iMax := min(i0+transposeBlock, rows)
		for j0 := 0; j0 < cols; j0 += transposeBlock {
			jMax := min(j0+transposeBlock, cols)
			for i := i0; i < iMax; i++ {
				src := m.Data[i*cols+j0 : i*cols+jMax]
				for j, v := range src {
					t.Data[(j0+j)*rows+i] = v
				}
			}
		}
	}
	return t
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between a and b. Panics if shapes differ.
func MaxAbsDiff(a, b *Dense) float64 {
	sameShape("MaxAbsDiff", a, b)
	var d float64
	for i, v := range a.Data {
		if x := math.Abs(v - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}

// String renders small matrices for debugging; large matrices are
// summarized by shape only.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
