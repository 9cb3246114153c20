package matrix

import (
	"os"
	"regexp"
	"runtime"
	"testing"
)

// kernelShapes covers square, odd, rectangular, strip-shaped, tiny and
// empty operands — every edge-kernel combination (row edge, column
// edge, both, k shorter/longer than a panel) plus sizes on both sides
// of the packed-path threshold and of directMaxB. A row with ldb > m
// multiplies by the m-column window at the right of a k x ldb B
// (MulAddCols), the way 3-D All computes its column groups.
var kernelShapes = []struct{ n, k, m, ldb int }{
	{0, 0, 0, 0}, {0, 5, 3, 3}, {3, 0, 5, 5}, {5, 3, 0, 0},
	{1, 1, 1, 1}, {2, 3, 4, 4}, {3, 3, 3, 3}, {4, 4, 4, 4}, {5, 5, 5, 5},
	{7, 11, 13, 13}, {16, 16, 16, 16}, {17, 19, 23, 23},
	{1, 64, 1, 1}, {64, 1, 64, 64}, {4, 300, 4, 4},
	{63, 65, 67, 67}, {64, 64, 64, 64}, {65, 64, 63, 63},
	{96, 257, 70, 70}, {128, 128, 128, 128}, {100, 300, 50, 50},
	// m = 28, 44, 60 leave 12 columns after the 4x16 tiles: a masked
	// 4x16 tile on AVX-512, a 4x8 and a 4x4 tile on AVX; n = 9 and 13
	// add an edge row.
	{8, 28, 28, 28}, {9, 20, 44, 44}, {13, 30, 60, 60},
	// A last 4 or 8 columns take the AVX tiles on AVX-512: a 4x8 tile
	// after a 4x16 one, a lone 4x8 plus an edge row, and a 4x4 tile
	// after a 4x16 one in a MulAddCols window. 3-D All's 16x2x2 column
	// group at (n, p) = (128, 512) is one masked tile per row strip.
	{8, 24, 24, 24}, {5, 9, 8, 8}, {12, 16, 20, 40}, {16, 2, 2, 16},
	// Packed on every tier (k*m > directMaxB): 4x8 tiles, one 4x4
	// strip and a 2-column edge, over two k-panels.
	{9, 280, 238, 238},
	// The per-node products of serve-compute's 3-D All jobs at
	// (n, p) = (512, 8), (384, 8) and (448, 64).
	{256, 128, 128, 256}, {192, 96, 96, 192}, {112, 28, 28, 56},
}

// tierNames names the microkernel tiers for test and benchmark output.
var tierNames = [...]string{tierGo: "go", tierAVX: "avx", tierAVX512: "avx512"}

// forEachTier runs f with tier set to each microkernel tier the CPU
// supports, pure Go first, and restores tier afterwards.
func forEachTier(f func(name string)) {
	defer func(saved int) { tier = saved }(tier)
	for tr := tierGo; tr <= hostTier; tr++ {
		tier = tr
		f(tierNames[tr])
	}
}

// mulAddWindow runs MulAdd when the window is all of b and MulAddCols
// otherwise, so both entry points are exercised.
func mulAddWindow(c, a, b *Dense, j0 int) {
	if j0 == 0 && c.Cols == b.Cols {
		MulAdd(c, a, b)
	} else {
		MulAddCols(c, a, b, j0)
	}
}

// TestMulAddDifferential pits the dispatching kernel, at every tier the
// CPU supports, against the reference triple loop over every shape and
// at parallelism levels 1, 2 and GOMAXPROCS, requiring bitwise-identical
// results: every kernel accumulates each element over k in ascending
// order with no fused multiply-add, so exact equality is the contract,
// not a tolerance.
func TestMulAddDifferential(t *testing.T) {
	t.Logf("host tier: %s", tierNames[hostTier])
	defer SetParallelism(0)
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, sh := range kernelShapes {
		j0 := sh.ldb - sh.m
		a := Random(sh.n, sh.k, int64(sh.n*1000+sh.k*10+sh.m))
		b := Random(sh.k, sh.ldb, int64(sh.m*1000+sh.k*10+sh.n))
		want := Random(sh.n, sh.m, 7) // non-zero C: MulAdd accumulates
		got0 := want.Clone()
		mulAddNaive(want, a, b.Block(0, sh.k, j0, sh.ldb))
		forEachTier(func(name string) {
			for _, lvl := range levels {
				SetParallelism(lvl)
				got := got0.Clone()
				mulAddWindow(got, a, b, j0)
				if !Equal(got, want) {
					t.Errorf("shape %dx%dx%d (ldb %d) tier %s parallelism %d: kernel differs from naive by %g",
						sh.n, sh.k, sh.m, sh.ldb, name, lvl, MaxAbsDiff(got, want))
				}
			}
		})
	}
}

// TestMulAddColsSplitsBitIdentical splits every kernelShapes product's
// output columns into three windows (some may be empty) and requires
// the windowed products, each in its own matrix, to reassemble the
// one-shot product bit for bit, at every tier the CPU supports, on both
// the tiled and packed paths.
func TestMulAddColsSplitsBitIdentical(t *testing.T) {
	for _, sh := range kernelShapes {
		j0 := sh.ldb - sh.m
		a := Random(sh.n, sh.k, int64(sh.n+sh.k))
		b := Random(sh.k, sh.ldb, int64(sh.m+2*sh.k))
		start := Random(sh.n, sh.m, 5)
		forEachTier(func(name string) {
			want := start.Clone()
			mulAddWindow(want, a, b, j0)
			for w := 0; w < 3; w++ {
				w0, w1 := w*sh.m/3, (w+1)*sh.m/3
				got := start.Block(0, sh.n, w0, w1)
				MulAddCols(got, a, b, j0+w0)
				if !Equal(got, want.Block(0, sh.n, w0, w1)) {
					t.Errorf("shape %dx%dx%d (ldb %d) tier %s window [%d,%d): differs from the one-shot product",
						sh.n, sh.k, sh.m, sh.ldb, name, w0, w1)
				}
			}
		})
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

// TestNoFusedMultiplyAdd guards the bit-identity contract at its
// source: a fused multiply-add rounds once where the reference rounds
// twice, so the assembly microkernels must not contain one. The
// differential tests can only run the tiers the CPU has; this check
// also covers the AVX-512 kernel on hosts without AVX-512.
func TestNoFusedMultiplyAdd(t *testing.T) {
	src, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if fma := regexp.MustCompile(`(?m)^\s*VF(N?)M(ADD|SUB)\w*`).Find(src); fma != nil {
		t.Errorf("kernel_amd64.s uses fused multiply-add (%s)", fma)
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
