package hypermm

import (
	"fmt"

	"hypermm/internal/matrix"
)

// Matrix is a dense row-major float64 matrix — the public operand type.
// Data has length Rows*Cols; element (i, j) is Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	d := matrix.New(r, c)
	return &Matrix{Rows: r, Cols: c, Data: d.Data}
}

// RandomMatrix returns an r x c matrix with entries uniform in [-1, 1),
// deterministic in the seed.
func RandomMatrix(r, c int, seed int64) *Matrix {
	d := matrix.Random(r, c, seed)
	return &Matrix{Rows: r, Cols: c, Data: d.Data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.internal().At(i, j) }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.internal().Set(i, j, v) }

// internal views the Matrix as the implementation type without copying.
func (m *Matrix) internal() *matrix.Dense {
	if m.Rows*m.Cols != len(m.Data) {
		panic(fmt.Sprintf("hypermm: Matrix %dx%d does not cover %d data words", m.Rows, m.Cols, len(m.Data)))
	}
	return matrix.FromSlice(m.Rows, m.Cols, m.Data)
}

func fromInternal(d *matrix.Dense) *Matrix {
	return &Matrix{Rows: d.Rows, Cols: d.Cols, Data: d.Data}
}

// Transpose returns a new matrix holding m transposed.
func (m *Matrix) Transpose() *Matrix {
	return fromInternal(m.internal().Transpose())
}

// MatMul returns the serial (single-machine) product a*b — the
// reference the distributed results are verified against.
func MatMul(a, b *Matrix) *Matrix {
	return fromInternal(matrix.Mul(a.internal(), b.internal()))
}

// MaxAbsDiff returns the largest absolute element-wise difference of
// two equal-shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	return matrix.MaxAbsDiff(a.internal(), b.internal())
}
