package hypermm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypermm/internal/algorithms"
	"hypermm/internal/core"
	"hypermm/internal/cost"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// runExtension runs one of the paper's extension constructions, which
// sit outside the algorithm table, the way Run runs a table entry: on a
// freshly built, validated machine (of topology topo) through runOn.
func runExtension(cfg Config, topo simnet.Topology, A, B *Matrix, run cost.Runner) (*Result, error) {
	sc, _ := cfg.machine() // validated below, for topo
	sc.Topology = topo
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return runOn(simnet.NewMachine(sc), run, A, B)
}

// grid is the rectangular-grid 3-D All on a Q x qy x Q grid.
func grid(qy int) cost.Runner {
	return func(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
		return core.ThreeAllGrid(m, A, B, qy)
	}
}

// dnsCannon is the DNS+Cannon combination over s supernodes.
func dnsCannon(s int) cost.Runner {
	return func(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
		return algorithms.DNSCannon(m, A, B, s)
	}
}

// diagCannon is the 3DD+Cannon combination over s supernodes.
func diagCannon(s int) cost.Runner {
	return func(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
		return core.ThreeDiagCannon(m, A, B, s)
	}
}

// squaring computes A^(2^rounds) by chained 3-D All rounds; it ignores
// its second operand.
func squaring(rounds int) cost.Runner {
	return func(m *simnet.Machine, A, _ *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
		return core.ThreeAllRepeated(m, A, rounds)
	}
}

// TestRunsGolden pins every simulated run bit for bit: the makespan,
// every CommStats counter and a SHA-256 of the product's Float64bits,
// for every table algorithm under both port models at (n, p) =
// (48, 64), and for each extension runner at one shape. Any change to
// a runner's messages, clock charges or arithmetic order shows here.
// Regenerate with -update only for an intended change.
func TestRunsGolden(t *testing.T) {
	var sb strings.Builder
	record := func(label string, res *Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, v := range res.C.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		fmt.Fprintf(&sb, "%s elapsed=%v %+v C=%x\n", label, res.Elapsed, res.Comm, h.Sum(nil))
	}
	cfg := func(p int, pm PortModel) Config { return Config{P: p, Ports: pm, Ts: 150, Tw: 3, Tc: 0.5} }
	operands := func(n int) (*Matrix, *Matrix) { return RandomMatrix(n, n, 1), RandomMatrix(n, n, 2) }
	for _, pm := range []PortModel{OnePort, MultiPort} {
		A, B := operands(48)
		for _, alg := range Algorithms {
			res, err := Run(alg, cfg(64, pm), A, B)
			record(fmt.Sprintf("%s %v n=48 p=64", alg.Name(), pm), res, err)
		}
		A, B = operands(32)
		res, err := runExtension(cfg(128, pm), simnet.Hypercube, A, B, grid(2))
		record(fmt.Sprintf("3dgrid qy=2 %v n=32 p=128", pm), res, err)
		res, err = runExtension(cfg(32, pm), simnet.Hypercube, A, B, dnsCannon(8))
		record(fmt.Sprintf("dnscannon s=8 %v n=32 p=32", pm), res, err)
		res, err = runExtension(cfg(32, pm), simnet.Hypercube, A, B, diagCannon(8))
		record(fmt.Sprintf("3ddcannon s=8 %v n=32 p=32", pm), res, err)
		A, B = operands(18)
		res, err = runExtension(cfg(9, pm), simnet.Torus2D, A, B, algorithms.CannonTorus)
		record(fmt.Sprintf("cannontorus %v n=18 p=9", pm), res, err)
		A, B = operands(48)
		res, err = runExtension(cfg(64, pm), simnet.Hypercube, A, B, core.ThreeDiagTrans)
		record(fmt.Sprintf("3ddtrans %v n=48 p=64", pm), res, err)
		res, err = runExtension(cfg(64, pm), simnet.Hypercube, A, A, squaring(2))
		record(fmt.Sprintf("squaring rounds=2 %v n=48 p=64", pm), res, err)
	}

	path := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("runs drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
