package hypercube

import "testing"

func TestChainRoundTrip(t *testing.T) {
	ch := NewChain(0b110000, []int{0, 1, 2})
	if ch.Q() != 8 || ch.Dim() != 3 {
		t.Fatalf("Q=%d Dim=%d", ch.Q(), ch.Dim())
	}
	for pos := 0; pos < 8; pos++ {
		n := ch.NodeAt(pos)
		if !ch.Contains(n) {
			t.Fatalf("NodeAt(%d)=%d not contained", pos, n)
		}
		if ch.PosOf(n) != pos {
			t.Fatalf("PosOf(NodeAt(%d)) = %d", pos, ch.PosOf(n))
		}
		if ch.NodeAtRank(ch.RankOf(n)) != n {
			t.Fatalf("rank round trip failed at pos %d", pos)
		}
	}
}

func TestChainRingStepsAreNeighbors(t *testing.T) {
	ch := NewChain(0, []int{2, 4, 5, 7})
	q := ch.Q()
	for pos := 0; pos < q; pos++ {
		a := ch.NodeAt(pos)
		b := ch.NodeAt((pos + 1) % q)
		if HammingDist(a, b) != 1 {
			t.Fatalf("ring step %d->%d not neighbors: %b vs %b", pos, (pos+1)%q, a, b)
		}
		if a^b != 1<<ch.RingStepDim(pos) {
			t.Fatalf("RingStepDim(%d) = %d but diff = %b", pos, ch.RingStepDim(pos), a^b)
		}
	}
}

func TestChainRankNeighbors(t *testing.T) {
	// Rank r and r^(1<<s) must be physical neighbors across PhysDim(s).
	ch := NewChain(0b1000, []int{0, 1, 2})
	for r := 0; r < 8; r++ {
		for s := 0; s < 3; s++ {
			a, b := ch.NodeAtRank(r), ch.NodeAtRank(r^(1<<s))
			if a^b != 1<<ch.PhysDim(s) {
				t.Fatalf("rank %d bit %d: %b vs %b", r, s, a, b)
			}
		}
	}
}

func TestChainBaseValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChain accepted base overlapping dims")
		}
	}()
	NewChain(0b1, []int{0})
}

func TestGrid2DEmbedding(t *testing.T) {
	g := NewGrid2D(64)
	if g.Q != 8 {
		t.Fatalf("Q = %d", g.Q)
	}
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			n := g.Node(i, j)
			if seen[n] {
				t.Fatalf("duplicate node %d", n)
			}
			seen[n] = true
			gi, gj := g.Coords(n)
			if gi != i || gj != j {
				t.Fatalf("Coords(Node(%d,%d)) = (%d,%d)", i, j, gi, gj)
			}
			// Horizontal and vertical grid neighbors are cube neighbors.
			if j+1 < 8 && HammingDist(n, g.Node(i, j+1)) != 1 {
				t.Fatalf("(%d,%d) east neighbor not adjacent", i, j)
			}
			if i+1 < 8 && HammingDist(n, g.Node(i+1, j)) != 1 {
				t.Fatalf("(%d,%d) south neighbor not adjacent", i, j)
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("embedding covers %d nodes", len(seen))
	}
}

func TestGrid2DChains(t *testing.T) {
	g := NewGrid2D(16)
	for i := 0; i < 4; i++ {
		row := g.RowChain(i)
		for j := 0; j < 4; j++ {
			if row.NodeAt(j) != g.Node(i, j) {
				t.Fatalf("row %d pos %d mismatch", i, j)
			}
		}
	}
	for j := 0; j < 4; j++ {
		col := g.ColChain(j)
		for i := 0; i < 4; i++ {
			if col.NodeAt(i) != g.Node(i, j) {
				t.Fatalf("col %d pos %d mismatch", j, i)
			}
		}
	}
}

func TestGrid3DEmbedding(t *testing.T) {
	g := NewGrid3D(512)
	if g.Q != 8 {
		t.Fatalf("Q = %d", g.Q)
	}
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			for k := 0; k < 8; k++ {
				n := g.Node(i, j, k)
				if seen[n] {
					t.Fatalf("duplicate node %d", n)
				}
				seen[n] = true
				gi, gj, gk := g.Coords(n)
				if gi != i || gj != j || gk != k {
					t.Fatalf("Coords mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	if len(seen) != 512 {
		t.Fatalf("embedding covers %d nodes", len(seen))
	}
}

func TestGrid3DChains(t *testing.T) {
	g := NewGrid3D(64)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			x, y, z := g.XChain(a, b), g.YChain(a, b), g.ZChain(a, b)
			for c := 0; c < 4; c++ {
				if x.NodeAt(c) != g.Node(c, a, b) {
					t.Fatalf("XChain(%d,%d) pos %d mismatch", a, b, c)
				}
				if y.NodeAt(c) != g.Node(a, c, b) {
					t.Fatalf("YChain(%d,%d) pos %d mismatch", a, b, c)
				}
				if z.NodeAt(c) != g.Node(a, b, c) {
					t.Fatalf("ZChain(%d,%d) pos %d mismatch", a, b, c)
				}
			}
		}
	}
}

// TestGridRectAndSupergridSpecialCases pins the address identities the
// two grids' doc comments state: GridRect with qy = cbrt(p) is Grid3D,
// Supergrid with s = p is Grid3D and with s = 1 is Grid2D; their Lines
// are Grid3D's and Grid2D's chains; Coords inverts Node.
func TestGridRectAndSupergridSpecialCases(t *testing.T) {
	const p = 64
	g3, g2 := NewGrid3D(p), NewGrid2D(p)
	rect, err := NewGridRect(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := NewSupergrid(p, p)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewSupergrid(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				n := g3.Node(i, j, k)
				if rect.Node(i, j, k) != n || cube.Node(i, j, k, 0, 0) != n {
					t.Fatalf("(%d,%d,%d): GridRect %d, Supergrid %d, Grid3D %d", i, j, k, rect.Node(i, j, k), cube.Node(i, j, k, 0, 0), n)
				}
				if ri, rj, rk := rect.Coords(n); ri != i || rj != j || rk != k {
					t.Fatalf("GridRect.Coords(%d) = (%d,%d,%d)", n, ri, rj, rk)
				}
				x, y, z := rect.Lines(n)
				if x.String() != g3.XChain(j, k).String() || y.String() != g3.YChain(i, k).String() || z.String() != g3.ZChain(i, j).String() {
					t.Fatalf("GridRect.Lines(%d) differ from Grid3D's chains", n)
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			n := g2.Node(i, j)
			if mesh.Node(0, 0, 0, i, j) != n {
				t.Fatalf("(%d,%d): Supergrid %d, Grid2D %d", i, j, mesh.Node(0, 0, 0, i, j), n)
			}
			if I, J, K, mi, mj := mesh.Coords(n); I != 0 || J != 0 || K != 0 || mi != i || mj != j {
				t.Fatalf("Supergrid.Coords(%d) = (%d,%d,%d,%d,%d)", n, I, J, K, mi, mj)
			}
			_, _, _, row, col := mesh.Lines(n)
			if row.String() != g2.RowChain(i).String() || col.String() != g2.ColChain(j).String() {
				t.Fatalf("Supergrid.Lines(%d) differ from Grid2D's chains", n)
			}
		}
	}
	for _, bad := range [][2]int{{64, 3}, {64, 8}, {32, 64}} {
		if _, err := NewGridRect(bad[0], bad[1]); err == nil {
			t.Errorf("NewGridRect(%d, %d) accepted", bad[0], bad[1])
		}
	}
	for _, bad := range [][2]int{{32, 16}, {64, 8}, {32, 5}} {
		if _, err := NewSupergrid(bad[0], bad[1]); err == nil {
			t.Errorf("NewSupergrid(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestGridPanicsOnBadSize(t *testing.T) {
	for _, p := range []int{8, 32} { // odd cube dims
		func() {
			defer func() { recover() }()
			NewGrid2D(p)
			t.Errorf("NewGrid2D(%d) did not panic", p)
		}()
	}
	for _, p := range []int{4, 16, 32} { // dims not divisible by 3
		func() {
			defer func() { recover() }()
			NewGrid3D(p)
			t.Errorf("NewGrid3D(%d) did not panic", p)
		}()
	}
}

func TestChainPanicsAndAccessors(t *testing.T) {
	ch := NewChain(0, []int{0, 1})
	if ch.String() == "" {
		t.Error("empty chain String")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("PhysDim out of range", func() { ch.PhysDim(5) })
	mustPanic("NodeAtRank out of range", func() { ch.NodeAtRank(4) })
	mustPanic("RankOf off chain", func() { ch.RankOf(0b100) })
	mustPanic("RingStepDim out of range", func() { ch.RingStepDim(4) })
	mustPanic("negative chain dim", func() { NewChain(0, []int{-1}) })
	mustPanic("grid coord out of range", func() { NewGrid2D(16).Node(4, 0) })
	mustPanic("3d coord out of range", func() { NewGrid3D(64).Node(0, 0, 4) })
	mustPanic("neighbor bad dim", func() { New(8).Neighbor(0, 3) })
	mustPanic("node out of range", func() { New(8).Hops(9, 0) })
}
