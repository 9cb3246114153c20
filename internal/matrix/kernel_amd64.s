//go:build amd64

#include "textflag.h"

// AVX and AVX-512 GEMM microkernels.
//
// Every kernel uses VMULPD followed by VADDPD — never fused multiply-add —
// so every lane performs the same two IEEE-754 operations the scalar Go
// microkernel performs, in the same k-ascending order per C element.
// The results are therefore bitwise identical to the pure-Go paths; the
// differential tests assert exact equality for every tier the CPU has.
//
// The kernels are stride-generic, so one kernel serves both the packed
// and the direct path: A row r of the tile is read at a + r*lda and
// advances ak elements per k step; B advances bk elements per k step.
// Packed operands pass lda = 1, ak = 4 (k-major 4-high strip) and
// bk = 4 (k-major 4-wide strip); in-place operands pass lda = K, ak = 1
// and bk = ldb.

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0
// must have the SSE and AVX state bits (0x6) enabled by the OS.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	CPUID
	MOVL	CX, BX
	ANDL	$0x18000000, BX
	CMPL	BX, $0x18000000
	JNE	noavx
	MOVL	$0, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// Call only once cpuHasAVX reported true (XGETBV needs OSXSAVE).
// CPUID.(7,0):EBX must report AVX512F (bit 16), and XCR0 must enable
// the SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state bits (0xE6).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL	$0, AX
	CPUID
	CMPL	AX, $7
	JB	noavx512
	MOVL	$7, AX
	MOVL	$0, CX
	CPUID
	BTL	$16, BX
	JCC	noavx512
	MOVL	$0, CX
	XGETBV
	ANDL	$0xE6, AX
	CMPL	AX, $0xE6
	JNE	noavx512
	MOVB	$1, ret+0(FP)
	RET
noavx512:
	MOVB	$0, ret+0(FP)
	RET

// func micro4x4AVX(c *float64, ldc int, a *float64, lda, ak int, b *float64, bk int, kd int)
//
// C tile (4x4 at c, row stride ldc) += A (4 x kd) times B (kd x 4).
// Per k step: one 4-wide B row load, four A broadcasts, four VMULPD,
// four VADDPD into the row accumulators Y0-Y3, which are loaded from
// C once and stored once.
TEXT ·micro4x4AVX(SB), NOSPLIT, $0-64
	MOVQ	c+0(FP), DI
	MOVQ	ldc+8(FP), SI
	MOVQ	a+16(FP), R8
	MOVQ	lda+24(FP), R10
	MOVQ	ak+32(FP), R11
	MOVQ	b+40(FP), R9
	MOVQ	bk+48(FP), R12
	MOVQ	kd+56(FP), CX

	SHLQ	$3, SI               // C row stride in bytes
	SHLQ	$3, R10              // A row stride in bytes
	SHLQ	$3, R11              // A k step in bytes
	SHLQ	$3, R12              // B k step in bytes
	LEAQ	(R10)(R10*2), R14    // 3 A rows in bytes

	VMOVUPD	(DI), Y0             // C row 0
	LEAQ	(DI)(SI*1), DX
	VMOVUPD	(DX), Y1             // C row 1
	VMOVUPD	(DX)(SI*1), Y2       // C row 2
	LEAQ	(DX)(SI*2), BX
	VMOVUPD	(BX), Y3             // C row 3

	TESTQ	CX, CX
	JZ	done4
loop4:
	VMOVUPD	(R9), Y4             // B step row b0..b3
	VBROADCASTSD	(R8), Y5
	VMULPD	Y4, Y5, Y5
	VADDPD	Y5, Y0, Y0
	VBROADCASTSD	(R8)(R10*1), Y6
	VMULPD	Y4, Y6, Y6
	VADDPD	Y6, Y1, Y1
	VBROADCASTSD	(R8)(R10*2), Y7
	VMULPD	Y4, Y7, Y7
	VADDPD	Y7, Y2, Y2
	VBROADCASTSD	(R8)(R14*1), Y8
	VMULPD	Y4, Y8, Y8
	VADDPD	Y8, Y3, Y3
	ADDQ	R11, R8
	ADDQ	R12, R9
	DECQ	CX
	JNZ	loop4
done4:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, (DX)
	VMOVUPD	Y2, (DX)(SI*1)
	VMOVUPD	Y3, (BX)
	VZEROUPPER
	RET

// func micro4x8AVX(c *float64, ldc int, a *float64, lda, ak int, b *float64, bh, bk int, kd int)
//
// C tile (4x8) += A (4 x kd) times B (kd x 8), where B step row kk's
// columns 0-3 are at b + kk*bk and columns 4-7 at b + bh + kk*bk: two
// adjacent packed strips (bh = 4*kd) or one in-place row (bh = 4).
// Eight YMM accumulators (Y0-Y7, two per C row) give eight independent
// add chains per k step.
TEXT ·micro4x8AVX(SB), NOSPLIT, $0-72
	MOVQ	c+0(FP), DI
	MOVQ	ldc+8(FP), SI
	MOVQ	a+16(FP), R8
	MOVQ	lda+24(FP), R10
	MOVQ	ak+32(FP), R11
	MOVQ	b+40(FP), R9
	MOVQ	bh+48(FP), R13
	MOVQ	bk+56(FP), R12
	MOVQ	kd+64(FP), CX

	SHLQ	$3, SI               // C row stride in bytes
	SHLQ	$3, R10              // A row stride in bytes
	SHLQ	$3, R11              // A k step in bytes
	SHLQ	$3, R13              // B high-half offset in bytes
	SHLQ	$3, R12              // B k step in bytes
	LEAQ	(R10)(R10*2), R14    // 3 A rows in bytes

	VMOVUPD	(DI), Y0             // C row 0
	VMOVUPD	32(DI), Y1
	LEAQ	(DI)(SI*1), DX
	VMOVUPD	(DX), Y2             // C row 1
	VMOVUPD	32(DX), Y3
	VMOVUPD	(DX)(SI*1), Y4       // C row 2
	VMOVUPD	32(DX)(SI*1), Y5
	LEAQ	(DX)(SI*2), BX
	VMOVUPD	(BX), Y6             // C row 3
	VMOVUPD	32(BX), Y7

	TESTQ	CX, CX
	JZ	done8
loop8:
	VMOVUPD	(R9), Y8             // B step row, columns 0-3
	VMOVUPD	(R9)(R13*1), Y9      // columns 4-7
	VBROADCASTSD	(R8), Y10
	VMULPD	Y8, Y10, Y11
	VADDPD	Y11, Y0, Y0
	VMULPD	Y9, Y10, Y12
	VADDPD	Y12, Y1, Y1
	VBROADCASTSD	(R8)(R10*1), Y13
	VMULPD	Y8, Y13, Y14
	VADDPD	Y14, Y2, Y2
	VMULPD	Y9, Y13, Y15
	VADDPD	Y15, Y3, Y3
	VBROADCASTSD	(R8)(R10*2), Y10
	VMULPD	Y8, Y10, Y11
	VADDPD	Y11, Y4, Y4
	VMULPD	Y9, Y10, Y12
	VADDPD	Y12, Y5, Y5
	VBROADCASTSD	(R8)(R14*1), Y13
	VMULPD	Y8, Y13, Y14
	VADDPD	Y14, Y6, Y6
	VMULPD	Y9, Y13, Y15
	VADDPD	Y15, Y7, Y7
	ADDQ	R11, R8
	ADDQ	R12, R9
	DECQ	CX
	JNZ	loop8
done8:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, (DX)
	VMOVUPD	Y3, 32(DX)
	VMOVUPD	Y4, (DX)(SI*1)
	VMOVUPD	Y5, 32(DX)(SI*1)
	VMOVUPD	Y6, (BX)
	VMOVUPD	Y7, 32(BX)
	VZEROUPPER
	RET

// func micro4x16AVX512(c *float64, ldc int, a *float64, lda, ak int, b *float64, bk int, kd, w int)
//
// C tile (4 x w, 1 <= w <= 16) += A (4 x kd) times B (kd x w), B step
// row kk being w contiguous doubles at b + kk*bk. Per k step: two ZMM
// B loads, four A broadcasts, eight VMULPD and eight VADDPD into the
// accumulators Z0-Z7 (two per C row). Columns at and past w are masked
// off (K1 for columns 0-7, K2 for 8-15) on every load and store, so
// they are never read or written; their lanes compute zeros nobody
// keeps.
TEXT ·micro4x16AVX512(SB), NOSPLIT, $0-72
	MOVQ	w+64(FP), CX
	MOVL	$1, AX
	SHLL	CX, AX
	DECL	AX                   // low w bits set
	KMOVW	AX, K1
	SHRL	$8, AX
	KMOVW	AX, K2

	MOVQ	c+0(FP), DI
	MOVQ	ldc+8(FP), SI
	MOVQ	a+16(FP), R8
	MOVQ	lda+24(FP), R10
	MOVQ	ak+32(FP), R11
	MOVQ	b+40(FP), R9
	MOVQ	bk+48(FP), R12
	MOVQ	kd+56(FP), CX

	SHLQ	$3, SI               // C row stride in bytes
	SHLQ	$3, R10              // A row stride in bytes
	SHLQ	$3, R11              // A k step in bytes
	SHLQ	$3, R12              // B k step in bytes
	LEAQ	(R10)(R10*2), R14    // 3 A rows in bytes

	VMOVUPD.Z	(DI), K1, Z0         // C row 0
	VMOVUPD.Z	64(DI), K2, Z1
	LEAQ	(DI)(SI*1), DX
	VMOVUPD.Z	(DX), K1, Z2         // C row 1
	VMOVUPD.Z	64(DX), K2, Z3
	VMOVUPD.Z	(DX)(SI*1), K1, Z4   // C row 2
	VMOVUPD.Z	64(DX)(SI*1), K2, Z5
	LEAQ	(DX)(SI*2), BX
	VMOVUPD.Z	(BX), K1, Z6         // C row 3
	VMOVUPD.Z	64(BX), K2, Z7

	TESTQ	CX, CX
	JZ	done16
loop16:
	VMOVUPD.Z	(R9), K1, Z8         // B step row, columns 0-7
	VMOVUPD.Z	64(R9), K2, Z9       // columns 8-15
	VBROADCASTSD	(R8), Z10
	VBROADCASTSD	(R8)(R10*1), Z11
	VBROADCASTSD	(R8)(R10*2), Z12
	VBROADCASTSD	(R8)(R14*1), Z13
	VMULPD	Z8, Z10, Z14
	VMULPD	Z9, Z10, Z15
	VMULPD	Z8, Z11, Z16
	VMULPD	Z9, Z11, Z17
	VMULPD	Z8, Z12, Z18
	VMULPD	Z9, Z12, Z19
	VMULPD	Z8, Z13, Z20
	VMULPD	Z9, Z13, Z21
	VADDPD	Z14, Z0, Z0
	VADDPD	Z15, Z1, Z1
	VADDPD	Z16, Z2, Z2
	VADDPD	Z17, Z3, Z3
	VADDPD	Z18, Z4, Z4
	VADDPD	Z19, Z5, Z5
	VADDPD	Z20, Z6, Z6
	VADDPD	Z21, Z7, Z7
	ADDQ	R11, R8
	ADDQ	R12, R9
	DECQ	CX
	JNZ	loop16
done16:
	VMOVUPD	Z0, K1, (DI)
	VMOVUPD	Z1, K2, 64(DI)
	VMOVUPD	Z2, K1, (DX)
	VMOVUPD	Z3, K2, 64(DX)
	VMOVUPD	Z4, K1, (DX)(SI*1)
	VMOVUPD	Z5, K2, 64(DX)(SI*1)
	VMOVUPD	Z6, K1, (BX)
	VMOVUPD	Z7, K2, 64(BX)
	VZEROUPPER
	RET
