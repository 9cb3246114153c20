package matrix

import (
	"fmt"
	"testing"
)

// BenchmarkMulAdd measures the dispatching kernel (packed above the
// threshold, direct-tiled below); BenchmarkMulAddNaive is the reference
// triple loop for the speedup ratio.
func BenchmarkMulAdd(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := Random(n, n, 1)
			y := Random(n, n, 2)
			c := New(n, n)
			b.SetBytes(int64(3 * 8 * n * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulAdd(c, x, y)
			}
		})
	}
}

// BenchmarkMulAddShapes times the per-node products of serve-compute's
// 3-D All jobs at (n, p) = (512, 8), (384, 8) and (448, 64) the way the
// nodes run them — MulAddCols over one of the two column groups of the
// B slab — at SetParallelism(1), on every microkernel tier the CPU
// supports, and reports Gflop/s.
func BenchmarkMulAddShapes(b *testing.B) {
	defer SetParallelism(SetParallelism(1))
	for _, sh := range []struct{ n, k, m int }{{256, 128, 128}, {192, 96, 96}, {112, 28, 28}} {
		x := Random(sh.n, sh.k, 1)
		y := Random(sh.k, 2*sh.m, 2)
		c := New(sh.n, sh.m)
		flops := float64(MulFlops(sh.n, sh.k, sh.m))
		forEachTier(func(name string) {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.n, sh.k, sh.m, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulAddCols(c, x, y, sh.m)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		})
	}
}

func BenchmarkMulAddNaive(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := Random(n, n, 1)
			y := Random(n, n, 2)
			c := New(n, n)
			b.SetBytes(int64(3 * 8 * n * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mulAddNaive(c, x, y)
			}
		})
	}
}

// BenchmarkTranspose: HJE and the transpose-based algorithms call
// Transpose on every block, so its cache behavior matters at 256+.
func BenchmarkTranspose(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := Random(n, n, 1)
			b.SetBytes(int64(2 * 8 * n * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Transpose()
			}
		})
	}
}
