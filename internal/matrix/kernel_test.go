package matrix

import (
	"runtime"
	"testing"
)

// kernelShapes covers square, odd, rectangular, strip-shaped, tiny and
// empty operands — every edge-kernel combination (row edge, column
// edge, both, k shorter/longer than a panel) plus sizes on both sides
// of the packed-path threshold.
var kernelShapes = []struct{ n, k, m int }{
	{0, 0, 0}, {0, 5, 3}, {3, 0, 5}, {5, 3, 0},
	{1, 1, 1}, {2, 3, 4}, {3, 3, 3}, {4, 4, 4}, {5, 5, 5},
	{7, 11, 13}, {16, 16, 16}, {17, 19, 23},
	{1, 64, 1}, {64, 1, 64}, {4, 300, 4},
	{63, 65, 67}, {64, 64, 64}, {65, 64, 63},
	{96, 257, 70}, {128, 128, 128}, {100, 300, 50},
}

// TestMulAddDifferential pits the dispatching kernel against the
// reference triple loop over every shape and at parallelism levels 1, 2
// and GOMAXPROCS, requiring bitwise-identical results: both kernels
// accumulate each element over k in ascending order with no fused
// multiply-add, so exact equality is the contract, not a tolerance.
func TestMulAddDifferential(t *testing.T) {
	defer SetParallelism(0)
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, sh := range kernelShapes {
		a := Random(sh.n, sh.k, int64(sh.n*1000+sh.k*10+sh.m))
		b := Random(sh.k, sh.m, int64(sh.m*1000+sh.k*10+sh.n))
		want := Random(sh.n, sh.m, 7) // non-zero C: MulAdd accumulates
		got0 := want.Clone()
		mulAddNaive(want, a, b)
		for _, lvl := range levels {
			SetParallelism(lvl)
			got := got0.Clone()
			MulAdd(got, a, b)
			if !Equal(got, want) {
				t.Errorf("shape %dx%dx%d parallelism %d: kernel differs from naive by %g",
					sh.n, sh.k, sh.m, lvl, MaxAbsDiff(got, want))
			}
		}
	}
}

// TestMulAddColsSplitsBitIdentical splits every kernelShapes product's
// output columns into three windows (some may be empty) and
// requires the windowed products, each in its own matrix, to reassemble
// the one-shot MulAdd bit for bit on both the tiled and packed paths.
func TestMulAddColsSplitsBitIdentical(t *testing.T) {
	for _, sh := range kernelShapes {
		a := Random(sh.n, sh.k, int64(sh.n+sh.k))
		b := Random(sh.k, sh.m, int64(sh.m+2*sh.k))
		want := Random(sh.n, sh.m, 5)
		start := want.Clone()
		MulAdd(want, a, b)
		for w := 0; w < 3; w++ {
			j0, j1 := w*sh.m/3, (w+1)*sh.m/3
			got := start.Block(0, sh.n, j0, j1)
			MulAddCols(got, a, b, j0)
			if !Equal(got, want.Block(0, sh.n, j0, j1)) {
				t.Errorf("shape %dx%dx%d window [%d,%d): differs from MulAdd", sh.n, sh.k, sh.m, j0, j1)
			}
		}
	}
	for _, bad := range []func(){
		func() { MulAddCols(New(2, 2), New(2, 3), New(3, 3), 2) }, // window past b
		func() { MulAddCols(New(2, 2), New(2, 3), New(2, 4), 0) }, // inner dim
		func() { MulAddCols(New(2, 2), New(2, 3), New(3, 4), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("MulAddCols accepted a bad shape")
				}
			}()
			bad()
		}()
	}
}

// TestMulAddParallelismBitIdentical runs a large multiply at several
// parallelism levels and requires every result byte-identical to the
// serial one — the invariant the emulator's determinism rests on.
func TestMulAddParallelismBitIdentical(t *testing.T) {
	defer SetParallelism(0)
	const n = 260 // forces the packed path with edge tiles
	a := Random(n, n, 1)
	b := Random(n, n, 2)
	SetParallelism(1)
	ref := New(n, n)
	MulAdd(ref, a, b)
	for _, lvl := range []int{2, 3, runtime.GOMAXPROCS(0) + 2} {
		SetParallelism(lvl)
		got := New(n, n)
		MulAdd(got, a, b)
		if !Equal(got, ref) {
			t.Errorf("parallelism %d: result differs from serial", lvl)
		}
	}
}

// TestMulAddConcurrentCallers exercises the shared worker pool the way
// the emulator does: many goroutines multiplying at once, each bounded
// by the global level. Checked under -race by make check.
func TestMulAddConcurrentCallers(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	const n = 130
	a := Random(n, n, 3)
	b := Random(n, n, 4)
	want := New(n, n)
	mulAddNaive(want, a, b)
	done := make(chan *Dense)
	for g := 0; g < 8; g++ {
		go func() {
			c := New(n, n)
			MulAdd(c, a, b)
			done <- c
		}()
	}
	for g := 0; g < 8; g++ {
		if c := <-done; !Equal(c, want) {
			t.Fatal("concurrent MulAdd diverged from reference")
		}
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(5)
	if got := Parallelism(); got != 5 {
		t.Errorf("Parallelism() = %d, want 5", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism() = %d, want GOMAXPROCS", got)
	}
}

// TestTransposeBlocked checks the tiled transpose over shapes that hit
// partial tiles on every edge.
func TestTransposeBlocked(t *testing.T) {
	for _, sh := range []struct{ r, c int }{
		{0, 0}, {1, 1}, {1, 7}, {7, 1}, {31, 33}, {32, 32}, {33, 31}, {100, 65},
	} {
		m := Random(sh.r, sh.c, int64(sh.r*100+sh.c))
		tr := m.Transpose()
		if tr.Rows != sh.c || tr.Cols != sh.r {
			t.Fatalf("Transpose %dx%d has shape %dx%d", sh.r, sh.c, tr.Rows, tr.Cols)
		}
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				if tr.At(j, i) != m.At(i, j) {
					t.Fatalf("Transpose %dx%d wrong at (%d,%d)", sh.r, sh.c, i, j)
				}
			}
		}
	}
}
