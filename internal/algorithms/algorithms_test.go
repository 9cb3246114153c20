package algorithms_test

import (
	"testing"

	"hypermm/internal/cost"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Algo is the common algorithm signature under test.
type Algo = cost.Runner

// run returns the algorithm table's runner for a: the entry's node
// program between a scatter and a gather through its Dist.
func run(a cost.Alg) Algo {
	e, _ := cost.Lookup(a)
	return e.Multiply
}

// The table runners of this package's node programs.
var (
	Simple   = run(cost.Simple)
	Cannon   = run(cost.Cannon)
	HJE      = run(cost.HJE)
	Berntsen = run(cost.Berntsen)
	DNS      = run(cost.DNS)
	Fox      = run(cost.Fox)
)

func newM(p int, pm simnet.PortModel) *simnet.Machine {
	return simnet.NewMachine(simnet.Config{P: p, Ports: pm, Ts: 10, Tw: 1, Tc: 0.1})
}

func checkProduct(t *testing.T, name string, alg Algo, p, n int, pm simnet.PortModel) simnet.RunStats {
	t.Helper()
	A := matrix.Random(n, n, int64(n)+1)
	B := matrix.Random(n, n, int64(n)+2)
	m := newM(p, pm)
	C, stats, err := alg(m, A, B)
	if err != nil {
		t.Fatalf("%s p=%d n=%d %v: %v", name, p, n, pm, err)
	}
	want := matrix.Mul(A, B)
	if d := matrix.MaxAbsDiff(C, want); d > 1e-9 {
		t.Fatalf("%s p=%d n=%d %v: result off by %g", name, p, n, pm, d)
	}
	if stats.Elapsed <= 0 {
		t.Errorf("%s p=%d n=%d: no time elapsed", name, p, n)
	}
	return stats
}

var squareCases = []struct{ p, n int }{
	{4, 8}, {4, 12}, {16, 16}, {16, 32}, {64, 32}, {64, 48},
}

var cubeCases = []struct{ p, n int }{
	{8, 8}, {8, 16}, {64, 16}, {64, 32}, {512, 64},
}

func TestSimpleCorrect(t *testing.T) {
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range squareCases {
			checkProduct(t, "Simple", Simple, c.p, c.n, pm)
		}
	}
}

func TestCannonCorrect(t *testing.T) {
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range squareCases {
			checkProduct(t, "Cannon", Cannon, c.p, c.n, pm)
		}
	}
}

func TestHJECorrect(t *testing.T) {
	// HJE needs log sqrt(p) | n/sqrt(p).
	cases := []struct{ p, n int }{{4, 8}, {16, 16}, {16, 32}, {64, 24}, {64, 48}, {256, 64}}
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range cases {
			checkProduct(t, "HJE", HJE, c.p, c.n, pm)
		}
	}
}

func TestBerntsenCorrect(t *testing.T) {
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range cubeCases {
			checkProduct(t, "Berntsen", Berntsen, c.p, c.n, pm)
		}
	}
}

func TestDNSCorrect(t *testing.T) {
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range cubeCases {
			checkProduct(t, "DNS", DNS, c.p, c.n, pm)
		}
	}
}

func TestTrivialMachine(t *testing.T) {
	// p=1: every algorithm degenerates to a local multiply.
	for name, alg := range map[string]Algo{"Simple": Simple, "Cannon": Cannon, "HJE": HJE, "Berntsen": Berntsen, "DNS": DNS} {
		A := matrix.Random(6, 6, 1)
		B := matrix.Random(6, 6, 2)
		m := newM(1, simnet.OnePort)
		C, _, err := alg(m, A, B)
		if err != nil {
			t.Fatalf("%s on p=1: %v", name, err)
		}
		if matrix.MaxAbsDiff(C, matrix.Mul(A, B)) > 1e-10 {
			t.Errorf("%s wrong on p=1", name)
		}
	}
}

func TestIdentityOperand(t *testing.T) {
	A := matrix.Random(16, 16, 7)
	m := newM(16, simnet.OnePort)
	I := matrix.New(16, 16)
	for i := 0; i < 16; i++ {
		I.Set(i, i, 1)
	}
	C, _, err := Cannon(m, A, I)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(C, A) > 1e-12 {
		t.Error("A*I != A under Cannon")
	}
}

func TestErrorsOnBadShapes(t *testing.T) {
	m := newM(16, simnet.OnePort)
	rect := matrix.New(8, 9)
	if _, _, err := Cannon(m, rect, rect); err == nil {
		t.Error("Cannon accepted non-square operands")
	}
	a8 := matrix.New(8, 8)
	b9 := matrix.New(9, 9)
	if _, _, err := Cannon(m, a8, b9); err == nil {
		t.Error("Cannon accepted mismatched operands")
	}
	odd := matrix.New(6, 6) // 6 not divisible by sqrt(16)=4
	if _, _, err := Cannon(m, odd, odd); err == nil {
		t.Error("Cannon accepted n not divisible by sqrt(p)")
	}
	m8 := newM(8, simnet.OnePort) // not a square
	sq := matrix.New(8, 8)
	if _, _, err := Cannon(m8, sq, sq); err == nil {
		t.Error("Cannon accepted non-square p")
	}
	m4 := newM(4, simnet.OnePort) // not a cube
	if _, _, err := DNS(m4, sq, sq); err == nil {
		t.Error("DNS accepted non-cube p")
	}
	if _, _, err := Berntsen(newM(8, simnet.OnePort), matrix.New(6, 6), matrix.New(6, 6)); err == nil {
		t.Error("Berntsen accepted n not divisible by cbrt(p)^2")
	}
	if _, _, err := HJE(newM(64, simnet.OnePort), matrix.New(16, 16), matrix.New(16, 16)); err == nil {
		t.Error("HJE accepted block edge not divisible by log sqrt(p)")
	}
}

// TestCannonCostShape verifies the measured one-port communication cost
// has the Table 2 structure: a = 2(sqrt p - 1) + log p start-ups and
// b = (n^2/sqrt p)(2 - 2/sqrt p + log p/sqrt p) words on the critical
// path.
func TestCannonCostShape(t *testing.T) {
	const p, n = 16, 32
	q := 4
	blk := float64(n * n / p)
	// t_s coefficient.
	mts := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 1, Tw: 0, Tc: 0})
	_, sa, err := Cannon(mts, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantA := float64(2*(q-1) + 2*2) // 2(sqrt p -1) + log p
	if sa.Elapsed > wantA || sa.Elapsed < wantA-4 {
		t.Errorf("Cannon a = %g, Table 2 worst case %g", sa.Elapsed, wantA)
	}
	// t_w coefficient.
	mtw := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 0, Tw: 1, Tc: 0})
	_, sb, err := Cannon(mtw, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantB := blk * float64(2*(q-1)+2*2)
	if sb.Elapsed > wantB || sb.Elapsed < wantB-4*blk {
		t.Errorf("Cannon b = %g, Table 2 worst case %g", sb.Elapsed, wantB)
	}
}

// TestSimpleCostMatchesTable2 checks Simple's one-port overhead exactly:
// (log p, 2 n^2/sqrt(p) (1 - 1/sqrt(p))).
func TestSimpleCostMatchesTable2(t *testing.T) {
	const p, n = 16, 32
	q := 4.0
	mts := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 1, Tw: 0, Tc: 0})
	_, sa, _ := Simple(mts, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if want := 4.0; sa.Elapsed != want { // log p
		t.Errorf("Simple a = %g, want %g", sa.Elapsed, want)
	}
	mtw := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 0, Tw: 1, Tc: 0})
	_, sb, _ := Simple(mtw, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if want := 2 * float64(n*n) / q * (1 - 1/q); sb.Elapsed != want {
		t.Errorf("Simple b = %g, want %g", sb.Elapsed, want)
	}
	// Multi-port: the phases overlap and each is log sqrt(p) times cheaper.
	mmp := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.MultiPort, Ts: 0, Tw: 1, Tc: 0})
	_, sm, _ := Simple(mmp, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if want := float64(n*n) / q * (1 - 1/q) / 2; sm.Elapsed != want { // / log sqrt(p)
		t.Errorf("Simple multi-port b = %g, want %g", sm.Elapsed, want)
	}
}

// TestSpaceAccounting checks the Table 3 shape: Simple uses ~2 n^2
// sqrt(p) aggregate words, Cannon ~3 n^2.
func TestSpaceAccounting(t *testing.T) {
	const p, n = 16, 32
	A := matrix.Random(n, n, 1)
	B := matrix.Random(n, n, 2)
	_, ss, _ := Simple(newM(p, simnet.OnePort), A, B)
	if lo, hi := 2*n*n*4, 3*n*n*4; ss.TotalPeak < lo || ss.TotalPeak > hi {
		t.Errorf("Simple aggregate space %d outside [%d,%d]", ss.TotalPeak, lo, hi)
	}
	_, cs, _ := Cannon(newM(p, simnet.OnePort), A, B)
	if lo, hi := 3*n*n, 4*n*n; cs.TotalPeak < lo || cs.TotalPeak > hi {
		t.Errorf("Cannon aggregate space %d outside [%d,%d]", cs.TotalPeak, lo, hi)
	}
}

func TestDeterministicStats(t *testing.T) {
	A := matrix.Random(16, 16, 3)
	B := matrix.Random(16, 16, 4)
	var last simnet.RunStats
	for trial := 0; trial < 3; trial++ {
		_, rs, err := DNS(newM(8, simnet.OnePort), A, B)
		if err != nil {
			t.Fatal(err)
		}
		if trial > 0 && (rs.Elapsed != last.Elapsed || rs.TotalWords != last.TotalWords) {
			t.Fatalf("nondeterministic stats: %+v vs %+v", rs, last)
		}
		last = rs
	}
}

func TestFoxCorrect(t *testing.T) {
	for _, pm := range []simnet.PortModel{simnet.OnePort, simnet.MultiPort} {
		for _, c := range squareCases {
			checkProduct(t, "Fox", Fox, c.p, c.n, pm)
		}
	}
}

// TestFoxWorseThanCannonStartups: Fox's per-step broadcast costs
// Theta(sqrt(p) log sqrt(p)) start-ups versus Cannon's Theta(sqrt(p)) —
// the reason the paper's comparison omits it.
func TestFoxWorseThanCannonStartups(t *testing.T) {
	const p, n = 64, 32
	mts := func(alg Algo) float64 {
		m := simnet.NewMachine(simnet.Config{P: p, Ports: simnet.OnePort, Ts: 1, Tw: 0})
		_, rs, err := alg(m, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
		if err != nil {
			t.Fatal(err)
		}
		return rs.Elapsed
	}
	if fox, cannon := mts(Fox), mts(Cannon); fox <= cannon {
		t.Errorf("Fox a=%g not above Cannon a=%g", fox, cannon)
	}
}
