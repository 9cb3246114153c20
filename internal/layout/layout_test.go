package layout_test

import (
	"fmt"
	"strings"
	"testing"

	"hypermm/internal/cost"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
)

// dist returns the algorithm table's distribution of a on p processors.
func dist(t testing.TB, a cost.Alg, p int) layout.Distribution {
	t.Helper()
	e, _ := cost.Lookup(a)
	d, err := e.Dist(p)
	if err != nil {
		t.Fatalf("%v: %v", a, err)
	}
	return d
}

func TestAlignedAlgorithms(t *testing.T) {
	// The paper's alignment statements, as propositions about the
	// distributions the runs scatter and gather through.
	aligned := map[cost.Alg]int{
		cost.Simple: 16, cost.Cannon: 16, cost.HJE: 16, cost.Fox: 16,
		cost.DNS: 64, cost.ThreeDiag: 64, cost.ThreeAll: 64,
	}
	for alg, p := range aligned {
		if !dist(t, alg, p).Aligned() {
			t.Errorf("%v: C not aligned with operands, but the paper says it is", alg)
		}
	}
}

func TestBerntsenMisaligned(t *testing.T) {
	// Section 3.4: "the result obtained is not aligned in the same
	// manner as A or B" — the drawback the diagonal algorithms fix.
	d := dist(t, cost.Berntsen, 64)
	if d.Aligned() {
		t.Error("Berntsen's C reported aligned; the paper says otherwise")
	}
	if layout.Equal(d.A, d.C) {
		t.Error("Berntsen A and C layouts equal")
	}
}

func TestAllTransOperandsDiffer(t *testing.T) {
	// Section 4.2.1: All_Trans needs B distributed as A's transpose;
	// its C comes out aligned with A (not B).
	d := dist(t, cost.AllTrans, 64)
	if layout.Equal(d.A, d.B) {
		t.Error("All_Trans operands reported identically distributed")
	}
	if !layout.Equal(d.A, d.C) {
		t.Error("All_Trans C not aligned with A")
	}
}

func TestTwoDiagLayouts(t *testing.T) {
	d := dist(t, cost.TwoDiag, 16)
	if !layout.Equal(d.A, d.C) {
		t.Error("2-D Diagonal C not aligned with A")
	}
	if layout.Equal(d.A, d.B) {
		t.Error("2-D Diagonal A and B should differ (columns vs rows)")
	}
}

func TestOwnersCoverEveryBlockOnce(t *testing.T) {
	// Every owner must be a valid address; layouts with one block per
	// processor must be bijections onto the node set.
	for _, alg := range []cost.Alg{cost.Simple, cost.ThreeAll, cost.ThreeDiag, cost.DNS, cost.Berntsen, cost.AllTrans} {
		const p = 64
		d := dist(t, alg, p)
		for _, l := range []layout.Layout{d.A, d.B, d.C} {
			for i := 0; i < l.QR; i++ {
				for j := 0; j < l.QC; j++ {
					if o := l.Owner(i, j); o < 0 || o >= p {
						t.Fatalf("%v/%s: owner(%d,%d)=%d out of range", alg, l.Name, i, j, o)
					}
				}
			}
		}
	}
}

func TestFig8OneBlockPerNode(t *testing.T) {
	d, err := layout.Fig8(64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < d.A.QR; i++ {
		for j := 0; j < d.A.QC; j++ {
			seen[d.A.Owner(i, j)]++
		}
	}
	if len(seen) != 64 {
		t.Fatalf("Fig8 covers %d nodes, want 64", len(seen))
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d owns %d blocks, want 1", n, c)
		}
	}
}

func TestEqualRejectsShapeMismatch(t *testing.T) {
	a, _ := layout.Block2D(16)
	b, _ := layout.Fig8(64)
	if layout.Equal(a.A, b.A) {
		t.Error("layouts of different shapes reported equal")
	}
}

func TestRender(t *testing.T) {
	d, _ := layout.DiagPlane(8)
	s := d.A.Render()
	if !strings.Contains(s, "diagonal plane") || len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Errorf("render = %q", s)
	}
}

func TestDistRejectsBadP(t *testing.T) {
	for _, tc := range []struct {
		alg cost.Alg
		p   int
	}{
		{cost.Cannon, 8}, {cost.Cannon, 12}, {cost.HJE, 32}, {cost.TwoDiag, 0},
		{cost.ThreeAll, 16}, {cost.Berntsen, 16}, {cost.DNS, -8},
	} {
		e, _ := cost.Lookup(tc.alg)
		if _, err := e.Dist(tc.p); err == nil || !strings.Contains(err.Error(), "needs p") {
			t.Errorf("%v.Dist(%d) error = %v, want a needs-p error", tc.alg, tc.p, err)
		}
	}
	if _, err := layout.DiagPlaneTrans(4); err == nil || !strings.Contains(err.Error(), "needs p") {
		t.Errorf("DiagPlaneTrans(4) error = %v, want a needs-p error", err)
	}
}

func TestThreeDiagTransLayouts(t *testing.T) {
	d, err := layout.DiagPlaneTrans(64)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Equal(d.A, d.B) {
		t.Error("3DD_Trans operands should differ (B transposed)")
	}
	if !layout.Equal(d.A, d.C) {
		t.Error("3DD_Trans C should align with A")
	}
	if d.Aligned() {
		t.Error("3DD_Trans should not be fully aligned")
	}
}

// family is one distribution the runs scatter and gather through.
type family struct {
	name string
	dist func(p int) (layout.Distribution, error)
}

// families lists every table entry's Dist and every extension runner's
// distribution: the rectangular Figure 8 at each y extent, the flat
// supernode grids at each supernode count, 3DD_Trans and the torus.
func families() []family {
	var fs []family
	for a := cost.Alg(0); ; a++ {
		e, ok := cost.Lookup(a)
		if !ok {
			break
		}
		fs = append(fs, family{e.Name, e.Dist})
	}
	fs = append(fs, family{"3ddtrans", layout.DiagPlaneTrans}, family{"torus", layout.Torus})
	for _, qy := range []int{1, 2, 4, 8, 16, 32, 64} {
		fs = append(fs, family{fmt.Sprintf("3dgrid qy=%d", qy), func(p int) (layout.Distribution, error) { return layout.Fig8Grid(p, qy) }})
	}
	for _, s := range []int{1, 8, 64, 512} {
		fs = append(fs,
			family{fmt.Sprintf("dnscannon s=%d", s), func(p int) (layout.Distribution, error) { return layout.SupernodeZPlane(p, s) }},
			family{fmt.Sprintf("3ddcannon s=%d", s), func(p int) (layout.Distribution, error) { return layout.SupernodeDiagPlane(p, s) }})
	}
	return fs
}

// checkRoundTrip scatters a random matrix through each layout of d and
// gathers it back: the result must be the matrix bit for bit, and no
// node may own two blocks of one matrix.
func checkRoundTrip(t *testing.T, name string, d layout.Distribution, p, mult int) {
	t.Helper()
	for _, l := range []layout.Layout{d.A, d.B, d.C} {
		owned := map[int]bool{}
		for i := 0; i < l.QR; i++ {
			for j := 0; j < l.QC; j++ {
				o := l.Owner(i, j)
				if o < 0 || o >= p || owned[o] {
					t.Fatalf("%s p=%d %s: block (%d,%d) owner %d out of range or owning two blocks", name, p, l.Name, i, j, o)
				}
				owned[o] = true
			}
		}
		n := mult * max(l.QR, l.QC)
		if err := d.Fits(n); err != nil {
			t.Fatalf("%s p=%d: %v", name, p, err)
		}
		M := matrix.Random(n, n, int64(p+n))
		if got := l.Gather(l.Scatter(M, p)); !matrix.Equal(got, M) {
			t.Fatalf("%s p=%d %s: gather(scatter(M)) != M", name, p, l.Name)
		}
	}
}

// TestScatterGatherRoundTrip holds every distribution a run goes through
// to the driver's contract at each p in {8, 64, 512} that its grid
// takes.
func TestScatterGatherRoundTrip(t *testing.T) {
	for _, f := range families() {
		took := false
		for _, p := range []int{8, 64, 512} {
			d, err := f.dist(p)
			if err != nil {
				continue
			}
			took = true
			checkRoundTrip(t, f.name, d, p, 2)
		}
		if !took {
			t.Errorf("%s takes none of p = 8, 64, 512", f.name)
		}
	}
}

// FuzzScatterGather draws a distribution family, a machine size and a
// block multiple, and checks the round trip.
func FuzzScatterGather(f *testing.F) {
	f.Add(uint8(0), uint8(6), uint8(1))
	f.Add(uint8(3), uint8(9), uint8(2))
	f.Add(uint8(12), uint8(6), uint8(3))
	fs := families()
	f.Fuzz(func(t *testing.T, fam, logp, mult uint8) {
		fm := fs[int(fam)%len(fs)]
		p := 1 << (logp % 11)
		d, err := fm.dist(p)
		if err != nil {
			t.Skip()
		}
		checkRoundTrip(t, fm.name, d, p, 1+int(mult%4))
	})
}
