package matrix

// Packed, register-tiled GEMM kernel.
//
// MulAdd dispatches between two paths that produce bit-identical
// results:
//
//   - a direct register-tiled path that reads A and B in place and
//     allocates nothing: small blocks (the emulator's per-node
//     multiplies), and on AVX-512 hosts every product whose B window
//     fits in L2, and
//   - a packed path for larger products: B is packed once into
//     tile-major panels, A is packed per (row-block, k-panel), and
//     register-blocked microkernels run over contiguous tiles with no
//     per-element branches.
//
// The microkernels come in tiers, picked once per process from CPUID
// (hostTier): pure Go (4x4 tiles), AVX (4x8 tiles, 4x4 for a
// remaining 4-column strip) and AVX-512 (on the direct path 4x16
// tiles, the last one masked to the columns left unless exactly 4 or
// 8 are left, which take the AVX tiles; the packed path as AVX). Rows
// and columns no tile covers take a scalar edge kernel.
// Every path and tier accumulates each C element over k in ascending
// order with C as the running accumulator (loaded into registers per
// k-panel, stored after), one multiply then one add per term and never
// a fused multiply-add, so all are bitwise identical to the reference
// triple loop mulAddNaive — Go does not fuse multiply-add either. The
// differential tests in kernel_test.go run every tier the CPU has and
// assert exact equality, not tolerance.
//
// The optional parallel path splits the M dimension (rows of C) into
// contiguous chunks. Each element is still computed by exactly one
// worker in the same k order, so results are bitwise identical at every
// parallelism level. Workers beyond the caller's goroutine are borrowed
// non-blockingly from a shared token pool bounded by SetParallelism, so
// many emulator nodes multiplying concurrently cannot oversubscribe the
// machine: a node that finds the pool empty simply runs its kernel
// inline. See DESIGN.md §8 for how the tile parameters were chosen.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	mr = 4 // microkernel rows (A-strip height)
	nr = 4 // packed B strip width; the narrowest tile's columns

	// kcBlk is the k-panel depth: a packed 4-wide A strip of kcBlk
	// depth is 8 KiB, so strip + B tile + C tile live in L1.
	kcBlk = 256
	// mcBlk rows of packed A per panel: mcBlk*kcBlk words = 512 KiB/4
	// keeps the A pack L2-resident alongside the streamed B panel.
	mcBlk = 128

	// packMinWork is the flop threshold (n*k*m) below which the direct
	// (non-packing, non-allocating) tiled path wins; 64^3 marks where
	// packing starts to pay for itself.
	packMinWork = 1 << 18
	// directMaxB is the largest B window (k*m words, 512 KiB) the
	// AVX-512 tier multiplies in place at any n: it stays L2-resident
	// while every 4-row strip of A streams over it, and the 4x16 tile
	// beats packing. Beyond it the direct path loses to packing.
	directMaxB = 1 << 16
)

// Microkernel tiers, narrowest first. tier is the one MulAdd uses; it
// starts at hostTier, and the tests lower it to run every tier the CPU
// supports.
const (
	tierGo     = iota // pure-Go 4x4 tiles
	tierAVX           // AVX 4x8 tiles (YMM)
	tierAVX512        // AVX-512 masked 4x16 tiles (ZMM) on the direct path
)

var tier = hostTier

// mulAddNaive is the reference triple loop (the seed kernel, minus its
// value-dependent zero-skip branch): plain ikj order, k ascending, C as
// the running accumulator. The packed kernel is differentially tested
// for exact equality against it.
func mulAddNaive(c, a, b *Dense) {
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*m : (i+1)*m]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			brow := b.Data[kk*m : (kk+1)*m]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// --- shared worker pool ---------------------------------------------

// parState is one SetParallelism setting: the worker bound and its
// level-1 borrowable worker tokens (nil at level 1).
type parState struct {
	level int
	sem   chan struct{}
}

var kernelPar atomic.Pointer[parState]

func init() { SetParallelism(0) }

// SetParallelism bounds the total number of goroutines the kernel may
// use across all concurrent MulAdd calls and returns the previous
// bound. n <= 0 restores the default, GOMAXPROCS. Level 1 disables the
// parallel path. Results are bitwise identical at every level; only
// wall-clock time changes.
func SetParallelism(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &parState{level: n}
	if n > 1 {
		s.sem = make(chan struct{}, n-1)
		for i := 0; i < n-1; i++ {
			s.sem <- struct{}{}
		}
	}
	if prev := kernelPar.Swap(s); prev != nil {
		return prev.level
	}
	return 0
}

// Parallelism returns the current kernel worker bound.
func Parallelism() int { return kernelPar.Load().level }

// acquireWorkers borrows up to max tokens from sem without blocking;
// the caller must return every token to sem when done.
func acquireWorkers(sem chan struct{}, max int) int {
	got := 0
	for got < max {
		select {
		case <-sem:
			got++
		default:
			return got
		}
	}
	return got
}

// --- pack buffer pool ------------------------------------------------

var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPackBuf(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPackBuf(p *[]float64) { packPool.Put(p) }

// --- dispatch ---------------------------------------------------------

// Packs reports whether MulAdd multiplies an n x k by k x m product on
// the packing path: n*k*m >= packMinWork, the size from which a
// product costs enough to pay for packing (and, to a caller, for
// moving it to another goroutine).
func Packs(n, k, m int) bool {
	return n > 0 && k > 0 && m > 0 && n*k >= packMinWork/m // no overflow risk
}

// mulAddKernel is the MulAdd implementation behind the shape checks:
// c += a*B, where B is the a.Cols x c.Cols matrix whose row kk starts
// at bd[kk*ldb] — all of b for MulAdd, a column window for MulAddCols.
func mulAddKernel(c, a *Dense, bd []float64, ldb int) {
	n, k, m := a.Rows, a.Cols, c.Cols
	if n == 0 || k == 0 || m == 0 {
		return
	}
	if !Packs(n, k, m) {
		mulAddTiled(c, a, bd, ldb, 0, n)
		return
	}

	bp := packedB(bd, ldb, k, m)
	if bp != nil {
		defer putPackBuf(bp)
	}

	// Borrow extra workers only when every worker gets at least one
	// full A panel of rows.
	par := kernelPar.Load()
	extra := acquireWorkers(par.sem, min(par.level-1, n/mcBlk))
	if extra == 0 {
		mulAddRows(c, a, bd, ldb, bp, 0, n)
		return
	}
	workers := extra + 1
	chunk := (n + workers - 1) / workers
	chunk = (chunk + mr - 1) / mr * mr
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		r0 := w * chunk
		if r0 >= n {
			break
		}
		r1 := min(r0+chunk, n)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			defer func() { par.sem <- struct{}{} }()
			mulAddRows(c, a, bd, ldb, bp, r0, r1)
		}(r0, r1)
	}
	mulAddRows(c, a, bd, ldb, bp, 0, min(chunk, n))
	wg.Wait()
	// Return tokens for workers that got an empty range.
	for w := 1; w < workers; w++ {
		if w*chunk >= n {
			par.sem <- struct{}{}
		}
	}
}

// packedB packs B into a pooled buffer for the packed path, or returns
// nil when the tier multiplies this B window in place: on AVX-512, any
// window of at most directMaxB words.
func packedB(bd []float64, ldb, k, m int) *[]float64 {
	if tier >= tierAVX512 && k*m <= directMaxB {
		return nil
	}
	bp := getPackBuf(k * m)
	packB(bd, ldb, k, m, *bp)
	return bp
}

// mulAddRows updates C rows [r0,r1): from the packed B *bp, or in
// place from bd when bp is nil. Safe to call concurrently for disjoint
// rows.
func mulAddRows(c, a *Dense, bd []float64, ldb int, bp *[]float64, r0, r1 int) {
	if bp == nil {
		mulAddTiled(c, a, bd, ldb, r0, r1)
	} else {
		mulAddRange(c, a, r0, r1, *bp)
	}
}

// --- packed path ------------------------------------------------------

// packB lays the k x m matrix whose row kk starts at bd[kk*ldb] out
// panel-major: the panel at k0 holds kd*m words starting at bp[k0*m];
// within a panel the nr-wide column strip at j0 (width w at the right
// edge) holds its kd x w tile k-major at panel offset kd*j0.
func packB(bd []float64, ldb, k, m int, bp []float64) {
	for k0 := 0; k0 < k; k0 += kcBlk {
		kd := min(kcBlk, k-k0)
		panel := bp[k0*m:]
		for j0 := 0; j0 < m; j0 += nr {
			w := min(nr, m-j0)
			dst := panel[kd*j0 : kd*j0+kd*w]
			idx := 0
			for kk := k0; kk < k0+kd; kk++ {
				src := bd[kk*ldb+j0 : kk*ldb+j0+w]
				for _, v := range src {
					dst[idx] = v
					idx++
				}
			}
		}
	}
}

// packA packs rows [i0,i1) of a for the k-panel [k0,k0+kd) into ap:
// mr-high row strips, each strip k-major (strip at relative row ri
// starts at ap[kd*ri]; step kk holds its h row values contiguously).
func packA(a *Dense, i0, i1, k0, kd int, ap []float64) {
	K := a.Cols
	for ri := 0; ri < i1-i0; ri += mr {
		h := min(mr, i1-i0-ri)
		dst := ap[kd*ri : kd*ri+kd*h]
		for r := 0; r < h; r++ {
			arow := a.Data[(i0+ri+r)*K+k0 : (i0+ri+r)*K+k0+kd]
			for kk, v := range arow {
				dst[kk*h+r] = v
			}
		}
	}
}

// mulAddRange runs the packed kernel over C rows [r0,r1) against the
// pre-packed bp. Safe to call concurrently for disjoint row ranges.
func mulAddRange(c, a *Dense, r0, r1 int, bp []float64) {
	K, m := a.Cols, c.Cols
	apBuf := getPackBuf(kcBlk * mcBlk)
	defer putPackBuf(apBuf)
	ap := *apBuf
	for k0 := 0; k0 < K; k0 += kcBlk {
		kd := min(kcBlk, K-k0)
		panel := bp[k0*m:]
		for i0 := r0; i0 < r1; i0 += mcBlk {
			ih := min(mcBlk, r1-i0)
			packA(a, i0, i0+ih, k0, kd, ap)
			for ri := 0; ri < ih; ri += mr {
				h := min(mr, ih-ri)
				aStrip := ap[kd*ri:]
				j0 := 0
				if tier >= tierAVX && h == mr {
					// Two adjacent packed B strips per 4x8 tile.
					for ; j0+2*nr <= m; j0 += 2 * nr {
						micro4x8AVX(&c.Data[(i0+ri)*m+j0], m, &aStrip[0], 1, mr, &panel[kd*j0], kd*nr, nr, kd)
					}
				}
				for ; j0 < m; j0 += nr {
					w := min(nr, m-j0)
					bStrip := panel[kd*j0:]
					switch {
					case h < mr || w < nr:
						microEdgePacked(c.Data, i0+ri, j0, h, w, m, aStrip, bStrip, kd)
					case tier >= tierAVX:
						micro4x4AVX(&c.Data[(i0+ri)*m+j0], m, &aStrip[0], 1, mr, &bStrip[0], nr, kd)
					default:
						micro4x4Packed(c.Data, i0+ri, j0, m, aStrip, bStrip, kd)
					}
				}
			}
		}
	}
}

// micro4x4Packed updates the 4x4 C tile at (i0,j0) from a packed A
// strip (kd x 4, k-major) and packed B strip (kd x 4, k-major). The 16
// accumulators live in registers; the inner loop is branch-free.
func micro4x4Packed(cd []float64, i0, j0, m int, ap, bp []float64, kd int) {
	c0 := cd[i0*m+j0 : i0*m+j0+4]
	c1 := cd[(i0+1)*m+j0 : (i0+1)*m+j0+4]
	c2 := cd[(i0+2)*m+j0 : (i0+2)*m+j0+4]
	c3 := cd[(i0+3)*m+j0 : (i0+3)*m+j0+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	c20, c21, c22, c23 := c2[0], c2[1], c2[2], c2[3]
	c30, c31, c32, c33 := c3[0], c3[1], c3[2], c3[3]
	for kk := 0; kk < kd; kk++ {
		av := ap[kk*4 : kk*4+4]
		bv := bp[kk*4 : kk*4+4]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		a0 := av[0]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		a1 := av[1]
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2 := av[2]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		a3 := av[3]
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	c2[0], c2[1], c2[2], c2[3] = c20, c21, c22, c23
	c3[0], c3[1], c3[2], c3[3] = c30, c31, c32, c33
}

// microEdgePacked handles partial tiles (h < mr and/or w < nr) at the
// matrix edges, same packed layouts, same k-ascending order.
func microEdgePacked(cd []float64, i0, j0, h, w, m int, ap, bp []float64, kd int) {
	var acc [mr * nr]float64
	for r := 0; r < h; r++ {
		for cc := 0; cc < w; cc++ {
			acc[r*nr+cc] = cd[(i0+r)*m+j0+cc]
		}
	}
	for kk := 0; kk < kd; kk++ {
		as := ap[kk*h : kk*h+h]
		bs := bp[kk*w : kk*w+w]
		for r := 0; r < h; r++ {
			av := as[r]
			for cc, bvv := range bs {
				acc[r*nr+cc] += av * bvv
			}
		}
	}
	for r := 0; r < h; r++ {
		for cc := 0; cc < w; cc++ {
			cd[(i0+r)*m+j0+cc] = acc[r*nr+cc]
		}
	}
}

// --- direct (small-block) path ---------------------------------------

// mulAddTiled is the no-allocation path: C rows [r0,r1) from A and B
// (row kk at bd[kk*ldb]) read in place with the widest register tiles
// the tier has (strided B loads are fine while the B window stays in
// cache).
func mulAddTiled(c, a *Dense, bd []float64, ldb, r0, r1 int) {
	k, m := a.Cols, c.Cols
	i := r0
	for ; i+mr <= r1; i += mr {
		j := 0
		switch {
		case tier >= tierAVX512:
			// 4x16 tiles, the last one masked to the columns left,
			// except that a last 4 or 8 columns take the AVX tiles,
			// which beat a half-empty ZMM tile there.
			for j < m {
				w := m - j
				if w == nr || w == 2*nr {
					break
				}
				w = min(w, 4*nr)
				micro4x16AVX512(&c.Data[i*m+j], m, &a.Data[i*k], k, 1, &bd[j], ldb, k, w)
				j += w
			}
			fallthrough
		case tier >= tierAVX:
			for ; j+2*nr <= m; j += 2 * nr {
				micro4x8AVX(&c.Data[i*m+j], m, &a.Data[i*k], k, 1, &bd[j], nr, ldb, k)
			}
			for ; j+nr <= m; j += nr {
				micro4x4AVX(&c.Data[i*m+j], m, &a.Data[i*k], k, 1, &bd[j], ldb, k)
			}
		default:
			for ; j+nr <= m; j += nr {
				micro4x4Direct(c.Data, i, j, m, a.Data, k, bd, ldb)
			}
		}
		if j < m {
			microEdgeDirect(c.Data, i, j, mr, m-j, m, a.Data, k, bd, ldb)
		}
	}
	for ; i < r1; i++ {
		for j := 0; j < m; j += nr {
			w := min(nr, m-j)
			microEdgeDirect(c.Data, i, j, 1, w, m, a.Data, k, bd, ldb)
		}
	}
}

// micro4x4Direct is micro4x4Packed reading A rows and B rows in place.
func micro4x4Direct(cd []float64, i0, j0, m int, ad []float64, k int, bd []float64, ldb int) {
	a0 := ad[i0*k : (i0+1)*k]
	a1 := ad[(i0+1)*k : (i0+2)*k]
	a2 := ad[(i0+2)*k : (i0+3)*k]
	a3 := ad[(i0+3)*k : (i0+4)*k]
	c0 := cd[i0*m+j0 : i0*m+j0+4]
	c1 := cd[(i0+1)*m+j0 : (i0+1)*m+j0+4]
	c2 := cd[(i0+2)*m+j0 : (i0+2)*m+j0+4]
	c3 := cd[(i0+3)*m+j0 : (i0+3)*m+j0+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	c20, c21, c22, c23 := c2[0], c2[1], c2[2], c2[3]
	c30, c31, c32, c33 := c3[0], c3[1], c3[2], c3[3]
	for kk := 0; kk < k; kk++ {
		bv := bd[kk*ldb+j0 : kk*ldb+j0+4]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		av := a0[kk]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[kk]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[kk]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[kk]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	c2[0], c2[1], c2[2], c2[3] = c20, c21, c22, c23
	c3[0], c3[1], c3[2], c3[3] = c30, c31, c32, c33
}

// microEdgeDirect handles partial tiles in place.
func microEdgeDirect(cd []float64, i0, j0, h, w, m int, ad []float64, k int, bd []float64, ldb int) {
	var acc [mr * nr]float64
	for r := 0; r < h; r++ {
		for cc := 0; cc < w; cc++ {
			acc[r*nr+cc] = cd[(i0+r)*m+j0+cc]
		}
	}
	for kk := 0; kk < k; kk++ {
		bs := bd[kk*ldb+j0 : kk*ldb+j0+w]
		for r := 0; r < h; r++ {
			av := ad[(i0+r)*k+kk]
			for cc, bvv := range bs {
				acc[r*nr+cc] += av * bvv
			}
		}
	}
	for r := 0; r < h; r++ {
		for cc := 0; cc < w; cc++ {
			cd[(i0+r)*m+j0+cc] = acc[r*nr+cc]
		}
	}
}
