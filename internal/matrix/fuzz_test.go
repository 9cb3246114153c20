package matrix

import (
	"runtime"
	"testing"
)

// FuzzMulAddDifferential pits the packed/tiled kernel, at every tier
// the CPU supports, against the reference triple loop over
// fuzzer-chosen (possibly empty, odd or rectangular) shapes, B column
// windows (MulAddCols at column j0 of a B with ldb = m+pad columns)
// and parallelism levels 1, 2 and GOMAXPROCS. Equality is exact: every
// kernel adds each element's terms in the same order without fused
// multiply-add.
func FuzzMulAddDifferential(f *testing.F) {
	f.Add(uint16(4), uint16(4), uint16(4), uint8(0), uint8(0), int64(1))
	f.Add(uint16(0), uint16(3), uint16(5), uint8(0), uint8(0), int64(2))
	f.Add(uint16(65), uint16(300), uint16(67), uint8(0), uint8(0), int64(3))
	f.Add(uint16(9), uint16(280), uint16(238), uint8(6), uint8(5), int64(4))
	f.Add(uint16(112), uint16(28), uint16(28), uint8(28), uint8(28), int64(5))
	f.Add(uint16(140), uint16(300), uint16(240), uint8(3), uint8(1), int64(6))
	f.Fuzz(func(t *testing.T, nB, kB, mB uint16, padB, offB uint8, seed int64) {
		n, k, m := int(nB)%150, int(kB)%310, int(mB)%250
		pad := int(padB) % 32
		j0 := int(offB) % (pad + 1)
		a := Random(n, k, seed)
		b := Random(k, m+pad, seed+1)
		want := Random(n, m, seed+2)
		start := want.Clone()
		mulAddNaive(want, a, b.Block(0, k, j0, j0+m))
		defer SetParallelism(0)
		forEachTier(func(name string) {
			for _, lvl := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				SetParallelism(lvl)
				got := start.Clone()
				MulAddCols(got, a, b, j0)
				if !Equal(got, want) {
					t.Fatalf("%dx%dx%d window at %d of %d tier %s parallelism %d: kernel differs from naive by %g",
						n, k, m, j0, m+pad, name, lvl, MaxAbsDiff(got, want))
				}
			}
		})
	})
}

func FuzzGridBlockRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(3), int64(7))
	f.Fuzz(func(t *testing.T, qrB, qcB uint8, seed int64) {
		qr := 1 + int(qrB)%4
		qc := 1 + int(qcB)%4
		m := Random(qr*3, qc*2, seed)
		re := New(m.Rows, m.Cols)
		for i := 0; i < qr; i++ {
			for j := 0; j < qc; j++ {
				re.SetGridBlock(qr, qc, i, j, m.GridBlock(qr, qc, i, j))
			}
		}
		if !Equal(re, m) {
			t.Fatal("grid round trip mismatch")
		}
	})
}

func FuzzOuterProductDecomposition(f *testing.F) {
	f.Add(uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, qB uint8, seed int64) {
		q := 1 + int(qB)%6
		n := q * 3
		a := Random(n, n, seed)
		b := Random(n, n, seed+1)
		sum := New(n, n)
		for k := 0; k < q; k++ {
			sum.AddInto(Mul(a.ColGroup(q, k), b.RowGroup(q, k)))
		}
		if MaxAbsDiff(sum, Mul(a, b)) > 1e-9 {
			t.Fatal("outer-product decomposition mismatch")
		}
	})
}

func FuzzThreeAllPieceIdentity(f *testing.F) {
	// The Figure 8/9 identity underpinning the 3-D All proof, fuzzed
	// over grid shapes and content.
	f.Add(uint8(2), int64(11))
	f.Fuzz(func(t *testing.T, qB uint8, seed int64) {
		q := 1 + int(qB)%3
		n := q * q * 2
		b := Random(n, n, seed)
		for k := 0; k < q; k++ {
			for j := 0; j < q; j++ {
				for i := 0; i < q; i++ {
					var pieces []*Dense
					for l := 0; l < q; l++ {
						pieces = append(pieces, b.GridBlock(q, q*q, k, F(q, i, l)).RowGroup(q, j))
					}
					got := ConcatCols(pieces...)
					want := b.GridBlock(q*q, q, F(q, k, j), i)
					if !Equal(got, want) {
						t.Fatalf("identity fails at k=%d j=%d i=%d q=%d", k, j, i, q)
					}
				}
			}
		}
	})
}
