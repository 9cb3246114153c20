//go:build !amd64

package matrix

// Non-amd64 builds always take the pure-Go microkernels.
var hostTier = tierGo

func micro4x4AVX(c *float64, ldc int, a *float64, lda, ak int, b *float64, bk int, kd int) {
	panic("matrix: SIMD microkernel called on non-amd64 build")
}

func micro4x8AVX(c *float64, ldc int, a *float64, lda, ak int, b *float64, bh, bk int, kd int) {
	panic("matrix: SIMD microkernel called on non-amd64 build")
}

func micro4x16AVX512(c *float64, ldc int, a *float64, lda, ak int, b *float64, bk int, kd, w int) {
	panic("matrix: SIMD microkernel called on non-amd64 build")
}
