package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(n^3) triple loop.
func naiveMul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("bad shape %dx%d/%d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// almostEqual reports whether a and b have one shape and agree
// element-wise within tol.
func almostEqual(a, b *Dense, tol float64) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && MaxAbsDiff(a, b) <= tol
}

func TestIdentityMul(t *testing.T) {
	a := Random(9, 9, 1)
	if !Equal(Mul(a, identity(9)), a) {
		t.Error("A*I != A")
	}
	if !Equal(Mul(identity(9), a), a) {
		t.Error("I*A != A")
	}
}

func TestMulMatchesNaive(t *testing.T) {
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {65, 64, 63}, {100, 1, 100},
	}
	for _, s := range shapes {
		a := Random(s.n, s.k, int64(s.n))
		b := Random(s.k, s.m, int64(s.m))
		got, want := Mul(a, b), naiveMul(a, b)
		if MaxAbsDiff(got, want) > 1e-12 {
			t.Errorf("Mul %dx%dx%d differs from naive by %g", s.n, s.k, s.m, MaxAbsDiff(got, want))
		}
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := Random(8, 8, 2)
	b := Random(8, 8, 3)
	c := Random(8, 8, 4)
	want := Add(c, Mul(a, b))
	MulAdd(c, a, b)
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Error("MulAdd did not accumulate")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on inner mismatch")
		}
	}()
	Mul(New(2, 3), New(4, 2))
}

func TestMulDistributesOverBlocks(t *testing.T) {
	// C = A*B == sum over k of A_col_k * B_row_k (outer products):
	// the identity every algorithm in the paper rests on.
	a := Random(12, 12, 5)
	b := Random(12, 12, 6)
	q := 4
	sum := New(12, 12)
	for k := 0; k < q; k++ {
		sum.AddInto(Mul(a.ColGroup(q, k), b.RowGroup(q, k)))
	}
	if MaxAbsDiff(sum, Mul(a, b)) > 1e-12 {
		t.Error("outer-product decomposition mismatch")
	}
}

func TestTranspose(t *testing.T) {
	a := Random(4, 7, 9)
	at := a.Transpose()
	if at.Rows != 7 || at.Cols != 4 {
		t.Fatalf("transpose shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose element mismatch")
			}
		}
	}
	if !Equal(at.Transpose(), a) {
		t.Error("double transpose differs")
	}
}

func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(6, 5, seed)
		b := Random(5, 7, seed+1)
		lhs := Mul(a, b).Transpose()
		rhs := Mul(b.Transpose(), a.Transpose())
		return MaxAbsDiff(lhs, rhs) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := Random(5, 5, 10)
	b := Random(5, 5, 11)
	if MaxAbsDiff(Sub(Add(a, b), b), a) > 1e-15 {
		t.Error("(a+b)-b != a")
	}
	c := a.Clone().Scale(2)
	if MaxAbsDiff(c, Add(a, a)) > 1e-15 {
		t.Error("2a != a+a")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Random(3, 3, 1)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Error("Clone shares storage")
	}
}

func TestMaxAbsDiffAndAlmostEqual(t *testing.T) {
	a := Random(4, 4, 1)
	b := a.Clone()
	b.Set(2, 2, b.At(2, 2)+1e-9)
	if !almostEqual(a, b, 1e-8) {
		t.Error("AlmostEqual too strict")
	}
	if almostEqual(a, b, 1e-10) {
		t.Error("AlmostEqual too lax")
	}
	if math.Abs(MaxAbsDiff(a, b)-1e-9) > 1e-15 {
		t.Error("MaxAbsDiff wrong")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(2, 3), New(3, 2)) {
		t.Error("Equal ignored shape")
	}
	if almostEqual(New(2, 3), New(3, 2), 1) {
		t.Error("AlmostEqual ignored shape")
	}
}

func TestMulFlops(t *testing.T) {
	if MulFlops(10, 20, 30) != 2*10*20*30 {
		t.Error("MulFlops wrong")
	}
}

func TestRandomDeterministic(t *testing.T) {
	if !Equal(Random(6, 6, 99), Random(6, 6, 99)) {
		t.Error("Random not deterministic for a fixed seed")
	}
	if Equal(Random(6, 6, 99), Random(6, 6, 100)) {
		t.Error("Random identical across seeds")
	}
}

func TestZeroInPlace(t *testing.T) {
	m := Random(4, 4, 3)
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

func TestStringForms(t *testing.T) {
	small := identity(2)
	if small.String() == "" {
		t.Error("empty String for small matrix")
	}
	big := New(100, 100)
	if big.String() != "Dense(100x100)" {
		t.Errorf("big String = %q", big.String())
	}
}
