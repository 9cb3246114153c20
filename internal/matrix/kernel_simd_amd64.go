//go:build amd64

package matrix

// hostTier is the widest microkernel tier the CPU and OS support,
// detected once with CPUID and XGETBV (kernel_amd64.s).
var hostTier = detectTier()

func detectTier() int {
	switch {
	case !cpuHasAVX():
		return tierGo
	case cpuHasAVX512():
		return tierAVX512
	default:
		return tierAVX
	}
}

// cpuHasAVX reports CPU and OS support for AVX.
func cpuHasAVX() bool

// cpuHasAVX512 reports CPU and OS support for AVX-512F; call it only
// once cpuHasAVX reported true.
func cpuHasAVX512() bool

// micro4x4AVX is the 4x4 tile update over stride-generic A and B (see
// kernel_amd64.s for the stride conventions).
//
//go:noescape
func micro4x4AVX(c *float64, ldc int, a *float64, lda, ak int, b *float64, bk int, kd int)

// micro4x8AVX is the 4x8 tile update; B columns 4-7 sit bh elements
// after columns 0-3.
//
//go:noescape
func micro4x8AVX(c *float64, ldc int, a *float64, lda, ak int, b *float64, bh, bk int, kd int)

// micro4x16AVX512 is the 4x16 tile update over w <= 16 contiguous B
// columns; columns past w are masked off.
//
//go:noescape
func micro4x16AVX512(c *float64, ldc int, a *float64, lda, ak int, b *float64, bk int, kd, w int)
