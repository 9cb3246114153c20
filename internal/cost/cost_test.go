package cost

import (
	"flag"
	"fmt"
	"image/color"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hypermm/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

var bothPorts = []simnet.PortModel{simnet.OnePort, simnet.MultiPort}

// goldenPoints is an (n, p) grid that straddles every boundary of the
// model: Table 3's p = n^2, n^1.5 and n^3 (with applicEps), each
// full-bandwidth condition of Table 2, and 3D All's p^(4/3) log cbrt(p).
func goldenPoints() [][2]float64 {
	var pts [][2]float64
	for _, n := range []float64{1, 2, 16, 64, 1024} {
		for _, p := range []float64{1, 2, 8, 64, 4096, 1 << 18} {
			pts = append(pts, [2]float64{n, p})
		}
	}
	for _, n := range []float64{16, 100} {
		for _, e := range []float64{2, 1.5, 3} {
			for _, f := range []float64{1, 1 + 5e-10, 1 + 2e-9} {
				pts = append(pts, [2]float64{n, math.Pow(n, e) * f})
			}
		}
	}
	for _, p := range []float64{64, 4096, 1 << 15} {
		sq, cb := math.Sqrt(p), math.Cbrt(p)
		for _, n := range []float64{
			math.Sqrt(p * lg(sq)),                  // Simple, Fox
			sq * lg(sq),                            // HJE
			math.Sqrt(p * lg(cb)),                  // Berntsen, 3D All_Trans, 3D All (intermediate)
			math.Sqrt(math.Pow(p, 2.0/3) * lg(cb)), // DNS, 3DD
			math.Sqrt(math.Pow(p, 4.0/3) * lg(cb)), // 3D All (full)
		} {
			for _, f := range []float64{0.99, 1, 1.01} {
				pts = append(pts, [2]float64{n * f, p})
			}
		}
	}
	return pts
}

// TestModelGolden pins the bits of Overhead, Space, Applicable and
// FullBandwidth for every algorithm id plus two out-of-range ids, under
// both port models, over goldenPoints. Any change to a Table 2/3
// expression — operand order included — shows up here.
func TestModelGolden(t *testing.T) {
	bits := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	var sb strings.Builder
	for _, alg := range []Alg{Simple, Cannon, HJE, Berntsen, DNS, TwoDiag, ThreeDiag, AllTrans, ThreeAll, Fox, -1, 42} {
		for _, pt := range goldenPoints() {
			n, p := pt[0], pt[1]
			fmt.Fprintf(&sb, "%d %v %v app=%t fb=%t", int(alg), n, p, Applicable(alg, n, p), FullBandwidth(alg, n, p))
			if s, ok := Space(alg, n, p); ok {
				fmt.Fprintf(&sb, " space=%s", bits(s))
			}
			for _, pm := range bothPorts {
				if a, b, ok := Overhead(alg, n, p, pm); ok {
					fmt.Fprintf(&sb, " %s=%s,%s", pm, bits(a), bits(b))
				}
			}
			sb.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "model.golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, path, g[i], w[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(g), path, len(w))
	}
}

// sampleNP draws a plausible (n, p) point from fuzz bytes.
func sampleNP(nb, pb uint8) (n, p float64) {
	n = math.Exp2(4 + float64(nb%10))  // n in [16, 8192]
	p = math.Exp2(3 + 3*float64(pb%5)) // p in {8, 64, 512, 4096, 32768}
	return
}

func TestApplicableLimits(t *testing.T) {
	// Table 3 conditions at the boundaries.
	if !Applicable(Cannon, 100, 100*100) || Applicable(Cannon, 100, 100*100+1) {
		t.Error("Cannon applicability boundary p <= n^2 wrong")
	}
	if !Applicable(ThreeAll, 100, 1000) || Applicable(ThreeAll, 100, 1001) {
		t.Error("3D All applicability boundary p <= n^1.5 wrong")
	}
	if !Applicable(ThreeDiag, 10, 1000) || Applicable(ThreeDiag, 10, 1001) {
		t.Error("3DD applicability boundary p <= n^3 wrong")
	}
}

func TestOverheadInapplicable(t *testing.T) {
	if _, _, ok := Overhead(ThreeAll, 16, 4096, simnet.OnePort); ok {
		t.Error("3D All overhead returned for p > n^1.5")
	}
	if _, _, ok := Overhead(Cannon, 8, 128, simnet.OnePort); ok {
		t.Error("Cannon overhead returned for p > n^2")
	}
}

func TestOverheadTrivialP(t *testing.T) {
	for _, alg := range Algorithms {
		a, b, ok := Overhead(alg, 64, 1, simnet.OnePort)
		if !ok || a != 0 || b != 0 {
			t.Errorf("%v: p=1 overhead = (%g,%g,%v), want zero", alg, a, b, ok)
		}
	}
}

// TestThreeAllDominates is the paper's Section 5.1 claim: on one-port
// hypercubes 3D All beats 3DD, Berntsen and Cannon for all p >= 8,
// irrespective of n, t_s, t_w, wherever 3D All is applicable.
func TestThreeAllDominates(t *testing.T) {
	f := func(nb, pb uint8, tsb, twb uint8) bool {
		n, p := sampleNP(nb, pb)
		if !Applicable(ThreeAll, n, p) || p < 8 {
			return true
		}
		ts := float64(tsb)
		tw := 0.1 + float64(twb)/16
		tAll, _ := Time(ThreeAll, n, p, ts, tw, simnet.OnePort)
		for _, rival := range []Alg{ThreeDiag, Berntsen, Cannon} {
			if tr, ok := Time(rival, n, p, ts, tw, simnet.OnePort); ok && tAll > tr+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestThreeDiagDominatesDNS: 3DD is at least as good as DNS for both
// architectures, irrespective of n, p, t_s, t_w (Section 5).
func TestThreeDiagDominatesDNS(t *testing.T) {
	f := func(nb, pb, tsb, twb uint8) bool {
		n, p := sampleNP(nb, pb)
		ts, tw := float64(tsb), 0.1+float64(twb)/16
		for _, pm := range bothPorts {
			td, ok1 := Time(ThreeDiag, n, p, ts, tw, pm)
			tn, ok2 := Time(DNS, n, p, ts, tw, pm)
			if ok1 && ok2 && td > tn+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestThreeAllDominatesAllTrans: 3D All is at least as good as
// 3D All_Trans for both architectures (Section 5).
func TestThreeAllDominatesAllTrans(t *testing.T) {
	f := func(nb, pb, tsb, twb uint8) bool {
		n, p := sampleNP(nb, pb)
		ts, tw := float64(tsb), 0.1+float64(twb)/16
		for _, pm := range bothPorts {
			ta, ok1 := Time(ThreeAll, n, p, ts, tw, pm)
			tt, ok2 := Time(AllTrans, n, p, ts, tw, pm)
			if ok1 && ok2 && ta > tt+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestHJEBeatsCannonMultiPort: wherever HJE's full-bandwidth condition
// holds, it beats Cannon on a multi-port machine (Section 5.2).
func TestHJEBeatsCannonMultiPort(t *testing.T) {
	f := func(nb, pb, twb uint8) bool {
		n, p := sampleNP(nb, pb)
		if !Applicable(HJE, n, p) || !FullBandwidth(HJE, n, p) || p < 4 {
			return true
		}
		tw := 0.1 + float64(twb)/16
		th, _ := Time(HJE, n, p, 0, tw, simnet.MultiPort)
		tc, _ := Time(Cannon, n, p, 0, tw, simnet.MultiPort)
		return th <= tc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMultiPortNeverWorse: for every algorithm the multi-port overhead
// is never above the one-port overhead (a node can always idle ports).
func TestMultiPortNeverWorse(t *testing.T) {
	f := func(ai, nb, pb, tsb, twb uint8) bool {
		alg := Algorithms[int(ai)%len(Algorithms)]
		n, p := sampleNP(nb, pb)
		ts, tw := float64(tsb), 0.1+float64(twb)/16
		t1, ok1 := Time(alg, n, p, ts, tw, simnet.OnePort)
		tm, ok2 := Time(alg, n, p, ts, tw, simnet.MultiPort)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || tm <= t1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestCollectiveCostTable1(t *testing.T) {
	const N, M = 8.0, 96.0
	logN := 3.0
	type want struct {
		c    Collective
		pm   simnet.PortModel
		a, b float64
	}
	cases := []want{
		{OneToAllBcast, simnet.OnePort, logN, M * logN},
		{OneToAllBcast, simnet.MultiPort, logN, M},
		{OneToAllPersonalized, simnet.OnePort, logN, (N - 1) * M},
		{OneToAllPersonalized, simnet.MultiPort, logN, (N - 1) * M / logN},
		{AllToAllBcast, simnet.OnePort, logN, (N - 1) * M},
		{AllToAllBcast, simnet.MultiPort, logN, (N - 1) * M / logN},
		{AllToAllPersonalized, simnet.OnePort, logN, N * M * logN / 2},
		{AllToAllPersonalized, simnet.MultiPort, logN, N * M / 2},
		{AllToOneReduce, simnet.OnePort, logN, M * logN},
		{AllToAllReduce, simnet.OnePort, logN, (N - 1) * M},
	}
	for _, w := range cases {
		a, b := CollectiveCost(w.c, N, M, w.pm)
		if a != w.a || b != w.b {
			t.Errorf("%v %v: got (%g,%g), want (%g,%g)", w.c, w.pm, a, b, w.a, w.b)
		}
	}
	if a, b := CollectiveCost(OneToAllBcast, 1, M, simnet.OnePort); a != 0 || b != 0 {
		t.Error("single-node collective should be free")
	}
}

func TestSpaceTable3(t *testing.T) {
	n, p := 128.0, 64.0
	cases := []struct {
		alg  Alg
		want float64
	}{
		{Simple, 2 * n * n * 8},
		{Cannon, 3 * n * n},
		{HJE, 3 * n * n},
		{Berntsen, 2*n*n + n*n*4},
		{DNS, 2 * n * n * 4},
		{ThreeDiag, 2 * n * n * 4},
		{AllTrans, 2 * n * n * 4},
		{ThreeAll, 2 * n * n * 4},
	}
	for _, c := range cases {
		got, ok := Space(c.alg, n, p)
		if !ok || got != c.want {
			t.Errorf("Space(%v) = (%g,%v), want %g", c.alg, got, ok, c.want)
		}
	}
	if _, ok := Space(ThreeAll, 8, 4096); ok {
		t.Error("Space returned for inapplicable point")
	}
}

func TestComputeTimeSharedByAll(t *testing.T) {
	if got := ComputeTime(64, 8, 0.5); got != 2*64*64*64*0.5/8 {
		t.Errorf("ComputeTime = %g", got)
	}
}

func TestStringsAndLetters(t *testing.T) {
	seen := map[byte]bool{}
	for _, a := range Algorithms {
		if a.String() == "" {
			t.Errorf("empty name for %d", int(a))
		}
		l := a.Letter()
		if seen[l] {
			t.Errorf("duplicate region letter %c", l)
		}
		seen[l] = true
	}
	if ThreeAll.String() != "3D All" || ThreeDiag.Letter() != 'D' {
		t.Error("canonical names wrong")
	}
}

func TestFullBandwidthConditions(t *testing.T) {
	// Table 2 conditions: 3D All needs n^2 >= p^(4/3) log cbrt(p) for
	// its first phase to fill ports; below that it degrades.
	a1, b1, ok1 := Overhead(ThreeAll, 1024, 512, simnet.MultiPort) // n^2 >= p^(4/3) log cbrt(p): full bandwidth
	a2, b2, ok2 := Overhead(ThreeAll, 100, 512, simnet.MultiPort)  // intermediate regime
	if !ok1 || !ok2 {
		t.Fatal("test points not applicable")
	}
	if a1 != a2 {
		t.Errorf("3D All multi-port a changed across regimes: %g vs %g", a1, a2)
	}
	// The intermediate regime has a relatively larger t_w coefficient
	// (normalized by n^2).
	if b1/(1024*1024) >= b2/(100*100) {
		t.Errorf("3D All regimes not ordered: %g vs %g", b1/(1024*1024), b2/(100*100))
	}
	// Note: within 3D All's applicability region p <= n^1.5, the
	// intermediate condition n^2 >= p log cbrt(p) always holds (since
	// n^2 >= p^(4/3) >= p log cbrt(p)), so the full one-port fallback is
	// unreachable for 3D All. DNS, by contrast, can fall back: p <= n^3
	// admits points whose messages cannot fill the ports.
	aop, bop, _ := Overhead(DNS, 10, 512, simnet.OnePort)
	amp, bmp, _ := Overhead(DNS, 10, 512, simnet.MultiPort)
	if aop != amp || bop != bmp {
		t.Error("DNS below full-bandwidth condition should equal one-port")
	}
}

func TestNamesAndLettersComplete(t *testing.T) {
	// Every table entry — including TwoDiag, which is not in Algorithms —
	// has a distinct title, command-line name, region letter and colour,
	// and a shape rule and runner; unknown values degrade gracefully.
	names := map[string]bool{}
	letters := map[byte]bool{}
	colors := map[color.RGBA]bool{}
	for a := Alg(0); a < numAlgs; a++ {
		e, ok := Lookup(a)
		if !ok {
			t.Fatalf("Lookup(%d) failed", int(a))
		}
		for _, n := range append([]string{a.String(), e.Name}, e.Aliases...) {
			if n == "" || names[n] {
				t.Errorf("bad or duplicate name %q", n)
			}
			names[n] = true
		}
		if l := a.Letter(); l == '?' || letters[l] {
			t.Errorf("bad or duplicate letter %c", l)
		}
		letters[a.Letter()] = true
		if c := a.Color(); colors[c] || c == inapplicableColor {
			t.Errorf("%v: bad or duplicate colour %v", a, c)
		}
		colors[a.Color()] = true
		if e.Shape == nil || e.Dist == nil || e.Run == nil {
			t.Errorf("%v: entry lacks a shape rule, distribution or node program", a)
		}
	}
	for _, a := range []Alg{-1, numAlgs, 99} {
		if _, ok := Lookup(a); ok || a.Letter() != '?' || a.String() != fmt.Sprintf("Alg(%d)", int(a)) {
			t.Errorf("unknown Alg %d not handled", int(a))
		}
	}
	for _, c := range Collectives {
		if c.String() == "" {
			t.Errorf("collective %d unnamed", int(c))
		}
	}
	if Collective(99).String() == "" {
		t.Error("unknown collective unnamed")
	}
}

func TestApplicabilityAndSpaceAllAlgs(t *testing.T) {
	// Exercise every branch of Applicable/FullBandwidth/Space,
	// including TwoDiag and the degenerate inputs.
	n, p := 240.0, 64.0
	all := append([]Alg{TwoDiag}, Algorithms...)
	for _, a := range all {
		if !Applicable(a, n, p) {
			t.Errorf("%v inapplicable at comfortable point", a)
		}
		if Applicable(a, 0.5, p) {
			t.Errorf("%v applicable at n<1", a)
		}
		_ = FullBandwidth(a, n, p)
		if s, ok := Space(a, n, p); !ok || s <= 0 {
			t.Errorf("%v space = (%g,%v)", a, s, ok)
		}
	}
	if Applicable(Alg(99), n, p) || FullBandwidth(Alg(99), n, p) {
		t.Error("unknown Alg applicable")
	}
	if _, ok := Space(Alg(99), n, p); ok {
		t.Error("unknown Alg has space")
	}
}

func TestTwoDiagOverheadBothPorts(t *testing.T) {
	for _, pm := range bothPorts {
		a, b, ok := Overhead(TwoDiag, 240, 64, pm)
		if !ok || a <= 0 || b <= 0 {
			t.Errorf("TwoDiag %v overhead = (%g,%g,%v)", pm, a, b, ok)
		}
	}
}

func TestDNSCannonOverheadEdges(t *testing.T) {
	if _, _, ok := OverheadDNSCannon(16, 8, 16, simnet.OnePort); ok {
		t.Error("accepted s > p")
	}
	if _, _, ok := OverheadDNSCannon(2, 512, 8, simnet.OnePort); ok {
		t.Error("accepted finer-than-element partition")
	}
	if a, b, ok := OverheadDNSCannon(64, 1, 1, simnet.OnePort); !ok || a != 0 || b != 0 {
		t.Errorf("p=1 combination = (%g,%g,%v)", a, b, ok)
	}
	// Multi-port at a regular point.
	a, b, ok := OverheadDNSCannon(64, 512, 8, simnet.MultiPort)
	if !ok || a <= 0 || b <= 0 {
		t.Errorf("multi-port combination = (%g,%g,%v)", a, b, ok)
	}
}
