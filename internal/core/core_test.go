package core_test

import (
	"math"
	"testing"

	"hypermm/internal/core"
	"hypermm/internal/cost"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

type algo = cost.Runner

// run returns the algorithm table's runner for a: the entry's node
// program between a scatter and a gather through its Dist.
func run(a cost.Alg) algo {
	e, _ := cost.Lookup(a)
	return e.Multiply
}

// The table runners of this package's node programs.
var (
	TwoDiag   = run(cost.TwoDiag)
	ThreeDiag = run(cost.ThreeDiag)
	AllTrans  = run(cost.AllTrans)
	ThreeAll  = run(cost.ThreeAll)
)

func newM(p int, pm simnet.PortModel, ts, tw, tc float64) *simnet.Machine {
	return simnet.NewMachine(simnet.Config{P: p, Ports: pm, Ts: ts, Tw: tw, Tc: tc})
}

func checkProduct(t *testing.T, name string, alg algo, p, n int, pm simnet.PortModel) simnet.RunStats {
	t.Helper()
	A := matrix.Random(n, n, int64(p*1000+n))
	B := matrix.Random(n, n, int64(p*1000+n+1))
	C, stats, err := alg(newM(p, pm, 10, 1, 0.1), A, B)
	if err != nil {
		t.Fatalf("%s p=%d n=%d %v: %v", name, p, n, pm, err)
	}
	if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
		t.Fatalf("%s p=%d n=%d %v: result off by %g", name, p, n, pm, d)
	}
	return stats
}

var ports = []simnet.PortModel{simnet.OnePort, simnet.MultiPort}

func TestTwoDiagCorrect(t *testing.T) {
	for _, pm := range ports {
		for _, c := range []struct{ p, n int }{{4, 8}, {16, 16}, {16, 32}, {64, 32}} {
			checkProduct(t, "TwoDiag", TwoDiag, c.p, c.n, pm)
		}
	}
}

func TestThreeDiagCorrect(t *testing.T) {
	for _, pm := range ports {
		for _, c := range []struct{ p, n int }{{8, 8}, {8, 16}, {64, 16}, {64, 32}, {512, 64}} {
			checkProduct(t, "ThreeDiag", ThreeDiag, c.p, c.n, pm)
		}
	}
}

func TestAllTransCorrect(t *testing.T) {
	for _, pm := range ports {
		for _, c := range []struct{ p, n int }{{8, 8}, {8, 16}, {64, 16}, {64, 32}, {512, 64}} {
			checkProduct(t, "AllTrans", AllTrans, c.p, c.n, pm)
		}
	}
}

func TestThreeAllCorrect(t *testing.T) {
	for _, pm := range ports {
		for _, c := range []struct{ p, n int }{{8, 8}, {8, 16}, {64, 16}, {64, 32}, {512, 64}} {
			checkProduct(t, "ThreeAll", ThreeAll, c.p, c.n, pm)
		}
	}
}

func TestTrivialP1(t *testing.T) {
	for name, alg := range map[string]algo{"TwoDiag": TwoDiag, "ThreeDiag": ThreeDiag, "AllTrans": AllTrans, "ThreeAll": ThreeAll} {
		A := matrix.Random(4, 4, 1)
		B := matrix.Random(4, 4, 2)
		C, _, err := alg(newM(1, simnet.OnePort, 1, 1, 0), A, B)
		if err != nil {
			t.Fatalf("%s p=1: %v", name, err)
		}
		if matrix.MaxAbsDiff(C, matrix.Mul(A, B)) > 1e-10 {
			t.Errorf("%s wrong on p=1", name)
		}
	}
}

func TestShapeErrors(t *testing.T) {
	m := newM(8, simnet.OnePort, 1, 1, 0)
	bad := matrix.New(6, 6) // 6 not divisible by cbrt(8)^2 = 4
	if _, _, err := ThreeAll(m, bad, bad); err == nil {
		t.Error("ThreeAll accepted n not divisible by cbrt(p)^2")
	}
	if _, _, err := AllTrans(m, bad, bad); err == nil {
		t.Error("AllTrans accepted n not divisible by cbrt(p)^2")
	}
	m4 := newM(4, simnet.OnePort, 1, 1, 0)
	sq := matrix.New(8, 8)
	if _, _, err := ThreeDiag(m4, sq, sq); err == nil {
		t.Error("ThreeDiag accepted non-cube p")
	}
	rect := matrix.New(4, 8)
	if _, _, err := TwoDiag(m4, rect, rect); err == nil {
		t.Error("TwoDiag accepted rectangular operands")
	}
}

// measureAB returns the measured (t_s, t_w) cost coefficients of an
// algorithm run, isolating communication (t_c = 0).
func measureAB(t *testing.T, alg algo, p, n int, pm simnet.PortModel) (a, b float64) {
	t.Helper()
	A := matrix.Random(n, n, 5)
	B := matrix.Random(n, n, 6)
	_, sa, err := alg(newM(p, pm, 1, 0, 0), A, B)
	if err != nil {
		t.Fatal(err)
	}
	_, sb, err := alg(newM(p, pm, 0, 1, 0), A, B)
	if err != nil {
		t.Fatal(err)
	}
	return sa.Elapsed, sb.Elapsed
}

func approx(t *testing.T, name string, got, want, tolFrac float64) {
	t.Helper()
	if math.Abs(got-want) > tolFrac*want+1e-9 {
		t.Errorf("%s = %g, want %g (±%.0f%%)", name, got, want, tolFrac*100)
	}
}

// TestThreeDiagCostMatchesTable2 verifies 3DD's one-port overhead
// against Table 2: a = (4/3) log p, b = (n^2/p^(2/3)) (4/3) log p.
// Table 2 charges the phases as strictly sequential worst cases; the
// emulator lets the point-to-point first phase pipeline into the
// broadcast phase, so the measured cost may undercut the paper's bound
// by up to one phase-1 term — but never exceed it.
func TestThreeDiagCostMatchesTable2(t *testing.T) {
	const p, n = 64, 32
	logp, logq := 6.0, 2.0
	blk := float64(n*n) / 16 // n^2/p^(2/3)
	a, b := measureAB(t, ThreeDiag, p, n, simnet.OnePort)
	if hi := 4.0 / 3 * logp; a > hi || a < hi-logq {
		t.Errorf("3DD one-port a = %g, want in [%g,%g]", a, hi-logq, hi)
	}
	if hi := blk * 4.0 / 3 * logp; b > hi || b < hi-logq*blk {
		t.Errorf("3DD one-port b = %g, want in [%g,%g]", b, hi-logq*blk, hi)
	}
}

// TestThreeAllCostMatchesTable2 verifies 3D All's one-port overhead:
// a = (4/3) log p, b = (n^2/p^(2/3)) (3(1-1/cbrt p) + log p/(6 cbrt p)).
func TestThreeAllCostMatchesTable2(t *testing.T) {
	const p, n = 64, 32
	logp := 6.0
	cbrt := 4.0
	blk := float64(n*n) / 16
	a, b := measureAB(t, ThreeAll, p, n, simnet.OnePort)
	approx(t, "3D All one-port a", a, 4.0/3*logp, 0)
	approx(t, "3D All one-port b", b, blk*(3*(1-1/cbrt)+logp/(6*cbrt)), 0)
}

// TestAllTransCostMatchesTable2 verifies 3D All_Trans's one-port
// overhead: a = (4/3) log p, b = (n^2/p^(2/3)) (3(1-1/cbrt p) + log p/3).
func TestAllTransCostMatchesTable2(t *testing.T) {
	const p, n = 64, 32
	logp := 6.0
	cbrt := 4.0
	blk := float64(n*n) / 16
	a, b := measureAB(t, AllTrans, p, n, simnet.OnePort)
	approx(t, "All_Trans one-port a", a, 4.0/3*logp, 0)
	approx(t, "All_Trans one-port b", b, blk*(3*(1-1/cbrt)+logp/3), 0)
}

// TestThreeAllBeatsAllTrans is the paper's dominance claim: 3D All has
// lower communication overhead than 3D All_Trans for the same machine
// and operands, on both port models.
func TestThreeAllBeatsAllTrans(t *testing.T) {
	for _, pm := range ports {
		for _, c := range []struct{ p, n int }{{8, 16}, {64, 32}, {512, 64}} {
			_, bAll := measureAB(t, ThreeAll, c.p, c.n, pm)
			_, bTrans := measureAB(t, AllTrans, c.p, c.n, pm)
			if bAll > bTrans {
				t.Errorf("%v p=%d n=%d: 3D All b=%g > All_Trans b=%g", pm, c.p, c.n, bAll, bTrans)
			}
		}
	}
}

// TestThreeDiagBeatsDNS: 3DD needs at most (4/3) log p start-ups versus
// DNS's (5/3) log p (one-port Table 2) — the dominance the paper claims.
func TestThreeDiagBeatsDNS(t *testing.T) {
	const p, n = 64, 32
	aDD, _ := measureAB(t, ThreeDiag, p, n, simnet.OnePort)
	if hi := 4.0 / 3 * 6; aDD > hi {
		t.Errorf("3DD a = %g exceeds Table 2 bound %g", aDD, hi)
	}
	if dnsA := 5.0 / 3 * 6; aDD >= dnsA {
		t.Errorf("3DD a = %g not below DNS's %g", aDD, dnsA)
	}
}

// TestMultiPortCheaper: every core algorithm's t_w coefficient shrinks
// when moving from one-port to multi-port hardware.
func TestMultiPortCheaper(t *testing.T) {
	for name, alg := range map[string]algo{"ThreeDiag": ThreeDiag, "AllTrans": AllTrans, "ThreeAll": ThreeAll} {
		_, b1 := measureAB(t, alg, 64, 32, simnet.OnePort)
		_, bm := measureAB(t, alg, 64, 32, simnet.MultiPort)
		if bm >= b1 {
			t.Errorf("%s: multi-port b=%g not cheaper than one-port b=%g", name, bm, b1)
		}
	}
}

// TestResultAlignment3DAll: the paper stresses that 3D All leaves C
// distributed exactly like A and B. Verify the per-node output block
// equals the corresponding Figure-8 block of the serial product.
func TestResultAlignment3DAll(t *testing.T) {
	const p, n = 8, 8
	A := matrix.Random(n, n, 11)
	B := matrix.Random(n, n, 12)
	C, _, err := ThreeAll(newM(p, simnet.OnePort, 1, 1, 0), A, B)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(A, B)
	// The collection already re-assembles via the Figure-8 layout, so a
	// correct full product plus the layout test in the collection loop
	// implies alignment; verify block extraction round-trips too.
	q := 2
	for k := 0; k < q; k++ {
		for f := 0; f < q*q; f++ {
			if matrix.MaxAbsDiff(C.GridBlock(q, q*q, k, f), want.GridBlock(q, q*q, k, f)) > 1e-9 {
				t.Fatalf("block (%d,%d) misaligned", k, f)
			}
		}
	}
}

// TestSpaceShape: 3-D algorithms hold ~2 n^2 cbrt(p) aggregate words
// (Table 3).
func TestSpaceShape(t *testing.T) {
	const p, n = 64, 32
	A := matrix.Random(n, n, 1)
	B := matrix.Random(n, n, 2)
	_, rs, err := ThreeAll(newM(p, simnet.OnePort, 1, 1, 0), A, B)
	if err != nil {
		t.Fatal(err)
	}
	agg := float64(rs.TotalPeak)
	want := 2 * float64(n*n) * 4 // 2 n^2 cbrt(p)
	if agg < 0.8*want || agg > 1.5*want {
		t.Errorf("3D All aggregate space %g, Table 3 says ~%g", agg, want)
	}
}

func TestDeterministic(t *testing.T) {
	A := matrix.Random(16, 16, 3)
	B := matrix.Random(16, 16, 4)
	var last simnet.RunStats
	for trial := 0; trial < 3; trial++ {
		_, rs, err := ThreeAll(newM(8, simnet.MultiPort, 7, 3, 0.01), A, B)
		if err != nil {
			t.Fatal(err)
		}
		if trial > 0 && rs.Elapsed != last.Elapsed {
			t.Fatalf("nondeterministic elapsed %g vs %g", rs.Elapsed, last.Elapsed)
		}
		last = rs
	}
}

// TestThreeAllRepeated: repeated squaring with zero redistribution —
// the concrete payoff of 3-D All's aligned output distribution.
func TestThreeAllRepeated(t *testing.T) {
	const p, n = 8, 16
	A := matrix.Random(n, n, 77).Scale(0.2) // keep powers bounded
	for rounds := 0; rounds <= 3; rounds++ {
		C, stats, err := core.ThreeAllRepeated(newM(p, simnet.OnePort, 10, 1, 0.1), A, rounds)
		if err != nil {
			t.Fatal(err)
		}
		want := A
		for r := 1; r < 1<<rounds; r++ {
			want = matrix.Mul(want, A)
		}
		if d := matrix.MaxAbsDiff(C, want); d > 1e-8 {
			t.Fatalf("rounds=%d: A^%d off by %g", rounds, 1<<rounds, d)
		}
		if rounds > 0 && stats.Elapsed <= 0 {
			t.Error("no time elapsed")
		}
	}
}

// TestThreeAllRepeatedRejectsNegativeRounds: a negative round count is
// an error, not an empty loop that returns A.
func TestThreeAllRepeatedRejectsNegativeRounds(t *testing.T) {
	A := matrix.Random(8, 8, 1)
	if _, _, err := core.ThreeAllRepeated(newM(8, simnet.OnePort, 1, 0, 0), A, -1); err == nil {
		t.Error("accepted negative rounds")
	}
}

// TestThreeAllRepeatedSingleSession: all rounds run in one machine
// session — message counts scale linearly with rounds and no
// redistribution traffic appears between rounds.
func TestThreeAllRepeatedSingleSession(t *testing.T) {
	const p, n = 8, 16
	A := matrix.Random(n, n, 78).Scale(0.2)
	_, one, err := core.ThreeAllRepeated(newM(p, simnet.OnePort, 10, 1, 0), A, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, three, err := core.ThreeAllRepeated(newM(p, simnet.OnePort, 10, 1, 0), A, 3)
	if err != nil {
		t.Fatal(err)
	}
	if three.TotalMsgs != 3*one.TotalMsgs {
		t.Errorf("messages for 3 rounds = %d, want exactly 3x one round (%d)", three.TotalMsgs, 3*one.TotalMsgs)
	}
	if three.Elapsed != 3*one.Elapsed {
		t.Errorf("elapsed for 3 rounds = %g, want 3x %g", three.Elapsed, one.Elapsed)
	}
}

// TestThreeDiagTransCorrect: the Section 4.1.1 stepping stone (3-D
// extension of the 2-D Diagonal scheme with B transposed).
func TestThreeDiagTransCorrect(t *testing.T) {
	for _, pm := range ports {
		for _, c := range []struct{ p, n int }{{8, 8}, {8, 16}, {64, 16}, {64, 32}} {
			checkProduct(t, "ThreeDiagTrans", core.ThreeDiagTrans, c.p, c.n, pm)
		}
	}
}

// TestThreeDiagTransSameCostAsThreeDiag: the paper's point — the 3-D
// Diagonal variant with identical distributions costs no more than the
// transposed-B stepping stone ("without any additional communication
// overhead").
func TestThreeDiagTransSameCostAsThreeDiag(t *testing.T) {
	const p, n = 64, 32
	logq, blk := 2.0, float64(n*n)/16
	aT, bT := measureAB(t, core.ThreeDiagTrans, p, n, simnet.OnePort)
	aD, bD := measureAB(t, ThreeDiag, p, n, simnet.OnePort)
	// Both share Table 2's 3DD bound (a = 4 log q); the emulator's
	// phase pipelining may undercut it by up to one phase for either
	// variant, so assert the bound and closeness rather than ordering.
	for _, v := range []struct {
		name string
		a, b float64
	}{{"transposed", aT, bT}, {"identical", aD, bD}} {
		if v.a > 4*logq || v.b > 4*logq*blk {
			t.Errorf("%s variant (a=%g,b=%g) exceeds the shared bound (%g,%g)", v.name, v.a, v.b, 4*logq, 4*logq*blk)
		}
	}
	if d := aD - aT; d > logq || d < -logq {
		t.Errorf("variants' start-up costs differ by more than a phase: %g vs %g", aD, aT)
	}
}
