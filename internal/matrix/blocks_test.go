package matrix

import (
	"testing"
	"testing/quick"
)

func TestBlockExtractSet(t *testing.T) {
	m := Random(8, 8, 1)
	b := m.Block(2, 5, 1, 4)
	if b.Rows != 3 || b.Cols != 3 {
		t.Fatalf("block shape %dx%d", b.Rows, b.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if b.At(i, j) != m.At(2+i, 1+j) {
				t.Fatal("block content mismatch")
			}
		}
	}
	n := New(8, 8)
	n.SetBlock(2, 1, b)
	if MaxAbsDiff(n.Block(2, 5, 1, 4), b) != 0 {
		t.Fatal("SetBlock round trip failed")
	}
}

func TestBlockIsACopy(t *testing.T) {
	m := Random(4, 4, 2)
	b := m.Block(0, 2, 0, 2)
	b.Set(0, 0, 1234)
	if m.At(0, 0) == 1234 {
		t.Error("Block shares storage with parent")
	}
}

func TestGridBlockRoundTrip(t *testing.T) {
	m := Random(12, 12, 3)
	q := 4
	re := New(12, 12)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			re.SetGridBlock(q, q, i, j, m.GridBlock(q, q, i, j))
		}
	}
	if !Equal(re, m) {
		t.Error("grid decompose/reassemble mismatch")
	}
}

func TestGridBlockRectangular(t *testing.T) {
	m := Random(6, 12, 4)
	b := m.GridBlock(2, 4, 1, 2)
	if b.Rows != 3 || b.Cols != 3 {
		t.Fatalf("rect grid block %dx%d", b.Rows, b.Cols)
	}
	if b.At(0, 0) != m.At(3, 6) {
		t.Error("rect grid block content wrong")
	}
}

func TestAddBlockAndAddGridBlock(t *testing.T) {
	m := New(6, 6)
	one := identity(3)
	m.AddBlock(0, 0, one)
	m.AddBlock(0, 0, one)
	if m.At(0, 0) != 2 {
		t.Error("AddBlock did not accumulate")
	}
	m.AddGridBlock(2, 2, 1, 1, one)
	if m.At(3, 3) != 1 {
		t.Error("AddGridBlock wrong placement")
	}
}

func TestRowColGroups(t *testing.T) {
	m := Random(8, 8, 5)
	if !Equal(ConcatRows(m.RowGroup(4, 0), m.RowGroup(4, 1), m.RowGroup(4, 2), m.RowGroup(4, 3)), m) {
		t.Error("row groups do not reassemble")
	}
	if !Equal(ConcatCols(m.ColGroup(2, 0), m.ColGroup(2, 1)), m) {
		t.Error("col groups do not reassemble")
	}
	gs := m.RowGroups(4)
	if !Equal(ConcatRows(gs...), m) {
		t.Error("RowGroups do not reassemble")
	}
	gs[2].Set(1, 3, 42) // views: writing a group writes m
	if m.At(5, 3) != 42 || cap(gs[1].Data) != len(gs[1].Data) {
		t.Error("RowGroups are not bounded views of m")
	}
}

func TestAssembleGrid(t *testing.T) {
	m := Random(9, 6, 6)
	q := 3
	blocks := make([][]*Dense, q)
	for i := range blocks {
		blocks[i] = make([]*Dense, 2)
		for j := range blocks[i] {
			blocks[i][j] = m.GridBlock(q, 2, i, j)
		}
	}
	if !Equal(AssembleGrid(blocks), m) {
		t.Error("AssembleGrid mismatch")
	}
}

func TestPartitionPanics(t *testing.T) {
	m := New(7, 7)
	for _, f := range []func(){
		func() { m.GridBlock(2, 2, 0, 0) },
		func() { m.RowGroup(3, 0) },
		func() { m.ColGroup(2, 0) },
		func() { m.Block(0, 9, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on bad partition")
				}
			}()
			f()
		}()
	}
}

func TestFAndFInv(t *testing.T) {
	f := func(iq, jq uint8) bool {
		q := int(iq%15) + 1
		i, j := int(jq)%q, int(iq)%q
		gi, gj := FInv(q, F(q, i, j))
		return gi == i && gj == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFCoversAllIndices(t *testing.T) {
	q := 4
	seen := make([]bool, q*q)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			l := F(q, i, j)
			if l < 0 || l >= q*q || seen[l] {
				t.Fatalf("F not a bijection at (%d,%d)", i, j)
			}
			seen[l] = true
		}
	}
}

func TestBlockProductIdentity(t *testing.T) {
	// The paper's Figure 8/9 identity: the l-th row-group piece of
	// B_{k,f(i,l)} over all l assembles to the Figure-9 block
	// B_{f(k,j),i} — exercised here in matrix terms (3-D All proof of
	// correctness, Section 4.2.2).
	q := 2 // cbrt(p) with p = 8
	n := 8
	b := Random(n, n, 7)
	for k := 0; k < q; k++ {
		for jj := 0; jj < q; jj++ {
			for i := 0; i < q; i++ {
				var pieces []*Dense
				for l := 0; l < q; l++ {
					blk := b.GridBlock(q, q*q, k, F(q, i, l)) // B_{k,f(i,l)}
					pieces = append(pieces, blk.RowGroup(q, jj))
				}
				got := ConcatCols(pieces...)
				want := b.GridBlock(q*q, q, F(q, k, jj), i)
				if !Equal(got, want) {
					t.Fatalf("piece identity fails at k=%d j=%d i=%d", k, jj, i)
				}
			}
		}
	}
}

func TestMorePanicPaths(t *testing.T) {
	m := Random(4, 4, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetBlock out of range", func() { m.SetBlock(3, 3, identity(2)) })
	mustPanic("AddBlock out of range", func() { m.AddBlock(3, 3, identity(2)) })
	mustPanic("GridBlock bad index", func() { m.GridBlock(2, 2, 2, 0) })
	mustPanic("SetGridBlock bad shape", func() { m.SetGridBlock(2, 2, 0, 0, identity(3)) })
	mustPanic("AddGridBlock bad shape", func() { m.AddGridBlock(2, 2, 0, 0, identity(3)) })
	mustPanic("RowGroup bad index", func() { m.RowGroup(2, 2) })
	mustPanic("ColGroup bad index", func() { m.ColGroup(2, -1) })
	mustPanic("ConcatCols row mismatch", func() { ConcatCols(identity(2), identity(3)) })
	mustPanic("ConcatRows col mismatch", func() { ConcatRows(identity(2), identity(3)) })
	mustPanic("AssembleGrid ragged", func() { AssembleGrid([][]*Dense{{identity(2), identity(2)}, {identity(2)}}) })
	mustPanic("AssembleGrid shape", func() { AssembleGrid([][]*Dense{{identity(2)}, {identity(3)}}) })
	mustPanic("FromSlice bad len", func() { FromSlice(2, 2, make([]float64, 3)) })
	mustPanic("At out of range", func() { m.At(4, 0) })
	mustPanic("Set out of range", func() { m.Set(0, 4, 1) })
	mustPanic("negative dims", func() { New(-1, 2) })
	mustPanic("MulAdd output shape", func() { MulAdd(New(2, 2), New(2, 3), New(3, 4)) })
}

func TestEmptyConcatAndWords(t *testing.T) {
	if ConcatCols().Rows != 0 || ConcatRows().Cols != 0 {
		t.Error("empty concat not 0x0")
	}
	if AssembleGrid(nil).Rows != 0 {
		t.Error("empty grid not 0x0")
	}
	if Random(3, 5, 1).Words() != 15 {
		t.Error("Words wrong")
	}
	if got := FromSlice(2, 2, []float64{1, 2, 3, 4}); got.At(1, 1) != 4 {
		t.Error("FromSlice wrong")
	}
}
