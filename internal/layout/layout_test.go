package layout

import (
	"strings"
	"testing"
)

func TestAlignedAlgorithms(t *testing.T) {
	// The paper's alignment statements, as propositions.
	aligned := map[string]int{
		"simple": 16, "cannon": 16, "hje": 16, "fox": 16,
		"dns": 64, "3dd": 64, "3dall": 64,
	}
	for alg, p := range aligned {
		d, err := For(alg, p)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !d.Aligned() {
			t.Errorf("%s: C not aligned with operands, but the paper says it is", alg)
		}
	}
}

func TestBerntsenMisaligned(t *testing.T) {
	// Section 3.4: "the result obtained is not aligned in the same
	// manner as A or B" — the drawback the diagonal algorithms fix.
	d, err := For("berntsen", 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Aligned() {
		t.Error("Berntsen's C reported aligned; the paper says otherwise")
	}
	if Equal(d.A, d.C) {
		t.Error("Berntsen A and C layouts equal")
	}
}

func TestAllTransOperandsDiffer(t *testing.T) {
	// Section 4.2.1: All_Trans needs B distributed as A's transpose;
	// its C comes out aligned with A (not B).
	d, err := For("alltrans", 64)
	if err != nil {
		t.Fatal(err)
	}
	if Equal(d.A, d.B) {
		t.Error("All_Trans operands reported identically distributed")
	}
	if !Equal(d.A, d.C) {
		t.Error("All_Trans C not aligned with A")
	}
}

func TestTwoDiagLayouts(t *testing.T) {
	d, err := For("2dd", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d.A, d.C) {
		t.Error("2-D Diagonal C not aligned with A")
	}
	if Equal(d.A, d.B) {
		t.Error("2-D Diagonal A and B should differ (columns vs rows)")
	}
}

func TestOwnersCoverEveryBlockOnce(t *testing.T) {
	// Layouts with one block per processor must be bijections onto the
	// node set they claim; diagonal/plane layouts reuse nodes, but the
	// owner must always be a valid address.
	for _, alg := range []string{"simple", "3dall", "3dd", "dns", "berntsen", "alltrans"} {
		p := 64
		d, err := For(alg, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []Layout{d.A, d.B, d.C} {
			for i := 0; i < l.QR; i++ {
				for j := 0; j < l.QC; j++ {
					if o := l.Owner(i, j); o < 0 || o >= p {
						t.Fatalf("%s/%s: owner(%d,%d)=%d out of range", alg, l.Name, i, j, o)
					}
				}
			}
		}
	}
}

func TestFig8OneBlockPerNode(t *testing.T) {
	l := Fig8("A", 64)
	seen := map[int]int{}
	for i := 0; i < l.QR; i++ {
		for j := 0; j < l.QC; j++ {
			seen[l.Owner(i, j)]++
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
	a := Block2D("a", 16)
	b := Fig8("b", 64)
	if Equal(a, b) {
		t.Error("layouts of different shapes reported equal")
	}
}

func TestRender(t *testing.T) {
	s := DiagPlane("diag", 8).Render()
	if !strings.Contains(s, "diag") || len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Errorf("render = %q", s)
	}
}

func TestForUnknown(t *testing.T) {
	if _, err := For("nope", 16); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestForRejectsBadP(t *testing.T) {
	for _, tc := range []struct {
		alg string
		p   int
	}{
		{"cannon", 8}, {"cannon", 12}, {"hje", 32}, {"2dd", 0},
		{"3dall", 16}, {"berntsen", 16}, {"3ddtrans", 4}, {"dns", -8},
	} {
		if _, err := For(tc.alg, tc.p); err == nil || !strings.Contains(err.Error(), tc.alg+" needs p") {
			t.Errorf("For(%q, %d) error = %v, want a %q-needs-p error", tc.alg, tc.p, err, tc.alg)
		}
	}
}

func TestThreeDiagTransLayouts(t *testing.T) {
	d, err := For("3ddtrans", 64)
	if err != nil {
		t.Fatal(err)
	}
	if Equal(d.A, d.B) {
		t.Error("3DD_Trans operands should differ (B transposed)")
	}
	if !Equal(d.A, d.C) {
		t.Error("3DD_Trans C should align with A")
	}
	if d.Aligned() {
		t.Error("3DD_Trans should not be fully aligned")
	}
}
