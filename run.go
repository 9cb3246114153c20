package hypermm

import (
	"fmt"

	"hypermm/internal/cost"
	"hypermm/internal/simnet"
)

// CommStats aggregates the communication and computation counters of a
// simulated run.
type CommStats struct {
	Msgs     int64 // messages sent
	Words    int64 // payload words sent (end to end)
	Startups int64 // per-hop message start-ups charged
	WordHops int64 // payload words times hops traveled
	Flops    int64 // floating-point operations across all nodes
	// Retries counts lost transmission attempts that the acknowledged
	// retry protocol recovered (always 0 without a fault plan).
	Retries int64
	// PeakWordsTotal is the aggregate peak storage across processors
	// (the paper's Table 3 "overall space used").
	PeakWordsTotal int
	// PeakWordsMax is the largest single-processor peak.
	PeakWordsMax int
}

// Result is the outcome of one distributed multiplication.
type Result struct {
	C       *Matrix   // the product, assembled
	Elapsed float64   // simulated makespan (comm + compute)
	Comm    CommStats // aggregate counters
}

// Run multiplies A by B with the given algorithm on a simulated
// hypercube. The initial distribution the paper assumes is materialized
// for free; communication and computation inside the algorithm are
// charged to the simulated clock; the result is collected for free.
func Run(alg Algorithm, cfg Config, A, B *Matrix) (*Result, error) {
	run, err := alg.runner()
	if err != nil {
		return nil, err
	}
	sc, err := cfg.machine()
	if err != nil {
		return nil, err
	}
	return runOn(simnet.NewMachine(sc), run, A, B)
}

// runOn executes one multiplication on an existing machine — freshly
// built by Run and RunTraced, or checked out warm by MachinePool.RunOn;
// the paths produce identical results.
func runOn(m *simnet.Machine, run cost.Runner, A, B *Matrix) (*Result, error) {
	c, rs, err := run(m, A.internal(), B.internal())
	if err != nil {
		return nil, err
	}
	return &Result{C: fromInternal(c), Elapsed: rs.Elapsed, Comm: commStats(rs)}, nil
}

// machine is the simulated hypercube cfg describes, with the error
// Validate finds in it.
func (cfg Config) machine() (simnet.Config, error) {
	sc := simnet.Config{
		P: cfg.P, Ports: simnet.PortModel(cfg.Ports), Ts: cfg.Ts, Tw: cfg.Tw, Tc: cfg.Tc,
		Faults: cfg.Faults.internal(), Deadline: cfg.Deadline,
	}
	return sc, sc.Validate()
}

func commStats(rs simnet.RunStats) CommStats {
	return CommStats{
		Msgs: rs.TotalMsgs, Words: rs.TotalWords, Startups: rs.TotalStartups,
		WordHops: rs.TotalWordHops, Flops: rs.TotalFlops, Retries: rs.TotalRetries,
		PeakWordsTotal: rs.TotalPeak, PeakWordsMax: rs.MaxPeak,
	}
}

// Verify checks C against the serial product A*B within tol and returns
// a descriptive error on mismatch.
func Verify(A, B, C *Matrix, tol float64) error {
	want := MatMul(A, B)
	if C.Rows != want.Rows || C.Cols != want.Cols {
		return fmt.Errorf("hypermm: result is %dx%d, want %dx%d", C.Rows, C.Cols, want.Rows, want.Cols)
	}
	if d := MaxAbsDiff(C, want); d > tol {
		return fmt.Errorf("hypermm: result differs from serial product by %g (tol %g)", d, tol)
	}
	return nil
}

// MeasuredOverhead runs the algorithm twice — with (t_s, t_w) = (1, 0)
// and (0, 1), computation free — and returns the measured communication
// overhead coefficients (a, b), directly comparable to the paper's
// Table 2 expressions (see Overhead).
func MeasuredOverhead(alg Algorithm, p, n int, ports PortModel) (a, b float64, err error) {
	A := RandomMatrix(n, n, 101)
	B := RandomMatrix(n, n, 102)
	for i, pair := range [][2]float64{{1, 0}, {0, 1}} {
		res, e := Run(alg, Config{P: p, Ports: ports, Ts: pair[0], Tw: pair[1], Tc: 0}, A, B)
		if e != nil {
			return 0, 0, e
		}
		if i == 0 {
			a = res.Elapsed
		} else {
			b = res.Elapsed
		}
	}
	return a, b, nil
}
