package hypermm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypermm/internal/cost"
	"hypermm/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// TestRegionMapGolden pins Figures 13 and 14 byte for byte: the output
// of hmm regionmap -model oneport|multiport at its default grid (four
// t_s panels at t_w = 3). It guards the region letters, the candidate
// order and every Table 2 row the candidates use.
func TestRegionMapGolden(t *testing.T) {
	for _, pm := range []PortModel{OnePort, MultiPort} {
		fig := map[PortModel]string{OnePort: "Figure 13", MultiPort: "Figure 14"}[pm]
		var sb strings.Builder
		for i, ts := range []float64{150, 50, 10, 2} {
			fmt.Fprintf(&sb, "%s(%c): t_s=%g, t_w=%g\n", fig, 'a'+i, ts, 3.0)
			sb.WriteString(RegionMap(pm, ts, 3, 5, 14, 64, 3, 20, 32))
			sb.WriteByte('\n')
		}
		path := filepath.Join("testdata", "regionmap-"+strings.ReplaceAll(pm.String(), "-", "")+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Errorf("%v region map differs from %s", pm, path)
		}
	}
}

// Edge cases of the analytic cost API that the hmmd planner relies on:
// every "no answer" path must report ok=false instead of a bogus number.

func TestCrossoverPNoCrossover(t *testing.T) {
	// Cannon's shifting rounds never undercut Simple's single all-to-all
	// broadcast in pure communication time (Simple loses on space,
	// Table 3, not on Table 2 time), so no crossover exists.
	if p, ok := cost.CrossoverP(cost.Simple, cost.Cannon, 256, 150, 3, simnet.OnePort, 4, 1024); ok {
		t.Errorf("CrossoverP(Simple, Cannon) = %g, ok=true; want no crossover", p)
	}
	// Endpoints where the challenger is inapplicable also yield ok=false:
	// Cannon needs p <= n^2, violated at pHi for n=16.
	if _, ok := cost.CrossoverP(cost.Simple, cost.Cannon, 16, 150, 3, simnet.OnePort, 4, 4096); ok {
		t.Error("CrossoverP with inapplicable endpoint reported a crossover")
	}
}

func TestCrossoverPExisting(t *testing.T) {
	// Sanity bracket: ThreeAll overtakes Cannon as p grows at fixed n
	// (the Figure 13 story), so the searched crossover must be inside.
	p, ok := cost.CrossoverP(cost.Cannon, cost.ThreeAll, 512, 150, 3, simnet.OnePort, 4, 1<<16)
	if !ok {
		t.Fatal("expected a Cannon -> 3D All crossover for n=512")
	}
	if p < 4 || p > 1<<16 {
		t.Errorf("crossover p=%g escaped the bracket", p)
	}
}

func TestEfficiencyInapplicable(t *testing.T) {
	// Berntsen requires p <= n^1.5; (n=16, p=1024) violates it.
	if e, ok := Efficiency(Berntsen, 16, 1024, 150, 3, 0.5, OnePort); ok {
		t.Errorf("Efficiency on inapplicable (n, p) = %g, ok=true", e)
	}
	// t_c = 0 leaves efficiency undefined everywhere.
	if _, ok := Efficiency(Cannon, 256, 16, 150, 3, 0, OnePort); ok {
		t.Error("Efficiency with t_c=0 reported ok")
	}
}

func TestIsoefficiencyNInvalid(t *testing.T) {
	for _, tc := range []struct {
		name              string
		p, target, tcCost float64
	}{
		{"target=0", 64, 0, 0.5},
		{"target=1", 64, 1, 0.5},
		{"tc=0", 64, 0.5, 0},
		{"p=0", 0, 0.5, 0.5},
	} {
		if n, ok := IsoefficiencyN(ThreeAll, tc.p, tc.target, 150, 3, tc.tcCost, OnePort); ok {
			t.Errorf("%s: IsoefficiencyN = %g, ok=true; want ok=false", tc.name, n)
		}
	}
}

func TestBestAlgorithmNoneApplicable(t *testing.T) {
	// p > n^3 rules out every candidate (the loosest Table 3 bound).
	if alg, ok := BestAlgorithm(4, 128, 150, 3, OnePort); ok {
		t.Errorf("BestAlgorithm(4, 128) = %v, ok=true; want none applicable", alg)
	}
	if alg, ok := BestAlgorithm(4, 128, 150, 3, MultiPort); ok {
		t.Errorf("BestAlgorithm(4, 128) multi-port = %v, ok=true", alg)
	}
}

func TestCandidatesMatchBestAlgorithm(t *testing.T) {
	// Candidates exposes exactly the set BestAlgorithm searches: the
	// winner must always be a member.
	for _, pm := range []PortModel{OnePort, MultiPort} {
		cands := Candidates(pm)
		if len(cands) == 0 {
			t.Fatalf("no candidates for %v", pm)
		}
		if pm == MultiPort {
			found := false
			for _, c := range cands {
				found = found || c == HJE
			}
			if !found {
				t.Error("multi-port candidate set is missing HJE")
			}
		}
		alg, ok := BestAlgorithm(1024, 64, 150, 3, pm)
		if !ok {
			t.Fatal("BestAlgorithm failed on an easy point")
		}
		member := false
		for _, c := range cands {
			member = member || c == alg
		}
		if !member {
			t.Errorf("winner %v not in Candidates(%v)", alg, pm)
		}
	}
}

func TestComputeTime(t *testing.T) {
	// 2 n^3 t_c / p, exactly.
	if got := ComputeTime(64, 8, 0.5); got != 2*64*64*64*0.5/8 {
		t.Errorf("ComputeTime = %g", got)
	}
}
