package conformance

import (
	"context"
	"fmt"
	"math"
	"time"

	"hypermm"
	"hypermm/internal/cluster"
	"hypermm/internal/cost"
	"hypermm/internal/simnet"
)

// runDistributed is the single entry point every oracle uses to run a
// distributed multiplication. Tests swap it out (SetRunHook) to plant a
// deliberately broken kernel and prove the engine finds it, shrinks it
// and persists a repro that replays to failure.
var runDistributed = hypermm.Run

// SetRunHook replaces the oracles' distributed-run entry point and
// returns a func restoring the previous one. Test-only; not safe for
// concurrent use with a running engine.
func SetRunHook(f func(hypermm.Algorithm, hypermm.Config, *hypermm.Matrix, *hypermm.Matrix) (*hypermm.Result, error)) (restore func()) {
	old := runDistributed
	runDistributed = f
	return func() { runDistributed = old }
}

// Oracle is one metamorphic (or differential) property: Check returns
// nil when the case satisfies it, or a descriptive error naming the
// algorithm and the violated relation. Applies, when non-nil, gates the
// oracle to the cases it is meaningful for.
type Oracle struct {
	Name    string
	Doc     string
	Applies func(Case) bool
	Check   func(Case) error
}

// Oracles is the full catalogue, in the order the engine runs them.
func Oracles() []Oracle {
	return []Oracle{
		{
			Name: "differential",
			Doc: "every runnable algorithm matches the serial kernel and every " +
				"other algorithm; clean cases also reconcile measured counters " +
				"with the Table 2 analytic model",
			Check: checkDifferential,
		},
		{
			Name:  "transpose",
			Doc:   "transpose duality: (A·B)^T = B^T·A^T for every runnable algorithm",
			Check: checkTranspose,
		},
		{
			Name:    "scaling",
			Doc:     "scaling linearity: (c·A)·B = c·(A·B) for every runnable algorithm",
			Applies: func(c Case) bool { return c.Scale != 0 },
			Check:   checkScaling,
		},
		{
			Name: "blockcomp",
			Doc: "block composition: a block-diagonal embedding of two problems " +
				"multiplies to the block-diagonal of their products",
			Applies: func(c Case) bool { return len(Algorithms(2*c.N, c.P)) > 0 },
			Check:   checkBlockComp,
		},
		{
			Name:  "costmono",
			Doc:   "cost-model sanity: analytic comm and total time are nonnegative and nondecreasing in n",
			Check: checkCostMonotone,
		},
		{
			Name: "simtime",
			Doc: "simulated-vs-predicted sanity: the emulated makespan is at least " +
				"the analytic compute time and at most a slack multiple of the " +
				"analytic communication + compute time",
			Check: checkSimVsPredicted,
		},
		{
			Name: "poolequiv",
			Doc: "machine-pool equivalence: repeated runs on one warm pooled " +
				"machine are byte-identical (product bytes, Elapsed, CommStats) " +
				"to the same runs on fresh machines",
			Check: checkPoolEquiv,
		},
		{
			Name: "faultequiv",
			Doc: "fault equivalence: under a recoverable plan the retry protocol " +
				"reproduces the fault-free product exactly",
			Applies: func(c Case) bool { return c.Recoverable() },
			Check:   checkFaultEquiv,
		},
		{
			Name: "clusterequiv",
			Doc: "cluster equivalence: a job routed through a coordinator and " +
				"worker over the TCP RPC protocol returns byte-identical " +
				"product, Elapsed and CommStats to a local run",
			Check: checkClusterEquiv,
		},
	}
}

// OracleByName finds an oracle in the catalogue.
func OracleByName(name string) (Oracle, bool) {
	for _, o := range Oracles() {
		if o.Name == name {
			return o, true
		}
	}
	return Oracle{}, false
}

// tolFor is the scale-aware element tolerance: distributed reductions
// reorder the n-term dot products, so agreement with the serial kernel
// is within rounding, not bitwise.
func tolFor(A, B *hypermm.Matrix, n int) float64 {
	return 1e-13 * float64(n) * maxAbs(A) * maxAbs(B)
}

func maxAbs(m *hypermm.Matrix) float64 {
	mx := 0.0
	for _, v := range m.Data {
		if v = math.Abs(v); v > mx {
			mx = v
		}
	}
	return mx
}

// checkDifferential runs the differential harness (differential.go):
// serial agreement, pairwise cross-algorithm agreement, typed-fault
// discipline and (clean cases) Table 2 counter reconciliation.
func checkDifferential(c Case) error {
	for _, o := range Check(c).Outcomes {
		if o.Status == Failed {
			return fmt.Errorf("%s: %v", o.Alg.Name(), o.Err)
		}
	}
	return nil
}

func checkTranspose(c Case) error {
	A, B := c.Operands()
	At, Bt := A.Transpose(), B.Transpose()
	tol := 2 * tolFor(A, B, c.N)
	cfg := c.cleanConfig()
	for _, alg := range Algorithms(c.N, c.P) {
		res, err := runDistributed(alg, cfg, A, B)
		if err != nil {
			return fmt.Errorf("%s: A·B: %v", alg.Name(), err)
		}
		resT, err := runDistributed(alg, cfg, Bt, At)
		if err != nil {
			return fmt.Errorf("%s: B^T·A^T: %v", alg.Name(), err)
		}
		if d := hypermm.MaxAbsDiff(resT.C.Transpose(), res.C); d > tol {
			return fmt.Errorf("%s: (B^T·A^T)^T differs from A·B by %g (tol %g)", alg.Name(), d, tol)
		}
	}
	return nil
}

func checkScaling(c Case) error {
	A, B := c.Operands()
	s := c.Scale
	As := scaled(A, s)
	tol := 2 * (1 + math.Abs(s)) * tolFor(A, B, c.N)
	cfg := c.cleanConfig()
	for _, alg := range Algorithms(c.N, c.P) {
		res, err := runDistributed(alg, cfg, A, B)
		if err != nil {
			return fmt.Errorf("%s: A·B: %v", alg.Name(), err)
		}
		resS, err := runDistributed(alg, cfg, As, B)
		if err != nil {
			return fmt.Errorf("%s: (c·A)·B: %v", alg.Name(), err)
		}
		if d := hypermm.MaxAbsDiff(resS.C, scaled(res.C, s)); d > tol {
			return fmt.Errorf("%s: (%g·A)·B differs from %g·(A·B) by %g (tol %g)", alg.Name(), s, s, d, tol)
		}
	}
	return nil
}

func scaled(m *hypermm.Matrix, s float64) *hypermm.Matrix {
	out := hypermm.NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
	return out
}

// blockCompAlgs bounds how many algorithms the (2n-sized, and therefore
// most expensive) block-composition oracle runs per case.
const blockCompAlgs = 3

func checkBlockComp(c Case) error {
	A1, B1 := c.Operands()
	shifted := c
	shifted.ContentSeed = c.ContentSeed + 7717
	A2, B2 := shifted.Operands()

	n := c.N
	DA, DB := hypermm.NewMatrix(2*n, 2*n), hypermm.NewMatrix(2*n, 2*n)
	setBlock(DA, 0, 0, A1)
	setBlock(DA, n, n, A2)
	setBlock(DB, 0, 0, B1)
	setBlock(DB, n, n, B2)

	C1 := hypermm.MatMul(A1, B1)
	C2 := hypermm.MatMul(A2, B2)
	tol := tolFor(DA, DB, 2*n)

	algs := Algorithms(2*n, c.P)
	if len(algs) > blockCompAlgs {
		algs = algs[:blockCompAlgs]
	}
	cfg := c.cleanConfig()
	for _, alg := range algs {
		res, err := runDistributed(alg, cfg, DA, DB)
		if err != nil {
			return fmt.Errorf("%s: diag(A1,A2)·diag(B1,B2): %v", alg.Name(), err)
		}
		for i := 0; i < 2*n; i++ {
			for j := 0; j < 2*n; j++ {
				var want float64
				switch {
				case i < n && j < n:
					want = C1.At(i, j)
				case i >= n && j >= n:
					want = C2.At(i-n, j-n)
				}
				if d := math.Abs(res.C.At(i, j) - want); d > tol {
					return fmt.Errorf("%s: block-diagonal product off by %g at (%d,%d) (tol %g)",
						alg.Name(), d, i, j, tol)
				}
			}
		}
	}
	return nil
}

func setBlock(dst *hypermm.Matrix, r0, c0 int, blk *hypermm.Matrix) {
	for i := 0; i < blk.Rows; i++ {
		for j := 0; j < blk.Cols; j++ {
			dst.Set(r0+i, c0+j, blk.At(i, j))
		}
	}
}

// checkCostMonotone checks the analytic model over the whole algorithm
// set at the case's machine: times are nonnegative, finite and — within
// one port-model regime — nondecreasing in n (communication volume can
// only grow with the problem). Multi-port rows switch to a cheaper
// schedule once the full-bandwidth condition holds, so comm time may
// legitimately drop exactly at a regime boundary; consecutive sizes in
// different regimes are not compared.
func checkCostMonotone(c Case) error {
	const relTol = 1e-9
	for _, alg := range hypermm.Algorithms {
		prevComm, prevTotal := math.Inf(-1), math.Inf(-1)
		prevRegime := -1
		for _, n := range []float64{float64(c.N), 2 * float64(c.N), 4 * float64(c.N)} {
			comm, ok := hypermm.CommTime(alg, n, float64(c.P), c.Ts, c.Tw, c.Ports)
			if !ok {
				continue
			}
			total, _ := hypermm.TotalTime(alg, n, float64(c.P), c.Ts, c.Tw, c.Tc, c.Ports)
			if comm < 0 || math.IsNaN(comm) || math.IsInf(comm, 0) {
				return fmt.Errorf("%s: comm time %g at n=%g not a finite nonnegative number", alg.Name(), comm, n)
			}
			regime := cost.Regime(cost.Alg(alg), n, float64(c.P), simnet.PortModel(c.Ports))
			if regime == prevRegime {
				if comm < prevComm*(1-relTol) {
					return fmt.Errorf("%s: comm time decreases in n: %g then %g at n=%g", alg.Name(), prevComm, comm, n)
				}
				if total < prevTotal*(1-relTol) {
					return fmt.Errorf("%s: total time decreases in n: %g then %g at n=%g", alg.Name(), prevTotal, total, n)
				}
			}
			prevComm, prevTotal, prevRegime = comm, total, regime
		}
	}
	return nil
}

// Slack factors for the simulated-vs-predicted check, matching what
// the differential harness established empirically: one-port bandwidth
// is tight, multi-port slicing can go ragged on small blocks, and HJE's
// unpipelined broadcasts inflate the start-up term by up to ~4x at the
// machine sizes sampled here. The compute term gets 2x because the
// analytic 2 n^3 t_c / p assumes perfect balance and no reduction adds,
// while e.g. TwoDiag charges its row reduction's additions to t_c too.
// An extra startup-term constant absorbs synchronization steps the
// Table 2 rows do not charge.
const (
	simStartupSlack = 4.5
	simBandSlack    = 2.5
	simComputeSlack = 2.0
	simExtraStarts  = 12
)

func checkSimVsPredicted(c Case) error {
	A, B := c.Operands()
	cfg := c.cleanConfig()
	comp := hypermm.ComputeTime(float64(c.N), float64(c.P), c.Tc)
	for _, alg := range Algorithms(c.N, c.P) {
		a, b, ok := hypermm.Overhead(alg, float64(c.N), float64(c.P), c.Ports)
		if !ok {
			continue // stepping stones have no Table 2 row
		}
		res, err := runDistributed(alg, cfg, A, B)
		if err != nil {
			return fmt.Errorf("%s: %v", alg.Name(), err)
		}
		// Lower bound: the perfectly parallel compute time is charged in
		// full on some node, so the makespan can never undercut it.
		if res.Elapsed+1e-9 < comp {
			return fmt.Errorf("%s: elapsed %g below analytic compute time %g", alg.Name(), res.Elapsed, comp)
		}
		bound := simStartupSlack*c.Ts*a + simBandSlack*c.Tw*b + simComputeSlack*comp + simExtraStarts*c.Ts
		if res.Elapsed > bound {
			return fmt.Errorf("%s: elapsed %g exceeds slack bound %g (analytic comm %g, compute %g)",
				alg.Name(), res.Elapsed, bound, c.Ts*a+c.Tw*b, comp)
		}
	}
	return nil
}

// checkFaultEquiv runs each algorithm fault-free and under the case's
// recoverable plan: the retry protocol retransmits identical payloads,
// so the two products must agree exactly — not within tolerance. A plan
// whose seed happens to drop nothing is a vacuous pass, not a failure;
// hmm soak aggregates retry counts across the whole run to prove the
// mix exercised the recovery path (see Summary.Retries).
func checkFaultEquiv(c Case) error {
	A, B := c.Operands()
	clean, faulty := c.cleanConfig(), c.faultConfig()
	for _, alg := range Algorithms(c.N, c.P) {
		res0, err := runDistributed(alg, clean, A, B)
		if err != nil {
			return fmt.Errorf("%s: clean: %v", alg.Name(), err)
		}
		res1, err := runDistributed(alg, faulty, A, B)
		if err != nil {
			return fmt.Errorf("%s: recoverable plan not recovered: %v", alg.Name(), err)
		}
		if d := hypermm.MaxAbsDiff(res0.C, res1.C); d != 0 {
			return fmt.Errorf("%s: fault-injected product differs from fault-free by %g", alg.Name(), d)
		}
		if res0.Comm.Retries != 0 {
			return fmt.Errorf("%s: clean run charged %d retries", alg.Name(), res0.Comm.Retries)
		}
		observeRetries(res1.Comm.Retries)
	}
	return nil
}

// poolEquivAlgs bounds how many algorithms the pool-equivalence oracle
// runs per case: each algorithm costs four full runs (two fresh, two
// warm).
const poolEquivAlgs = 3

// checkPoolEquiv runs each algorithm twice on one warm pooled machine
// and twice on fresh machines: the pool's reset contract says the
// results must be byte-identical — product bits, simulated Elapsed and
// every CommStats counter — or warm serving would silently drift from
// the cold semantics every other oracle checks. Recoverable fault plans
// are replayed on the warm machine too: retry traffic parks messages
// mid-protocol, the hardest state for the reset to scrub.
//
// Deliberately bypasses the runDistributed hook: this oracle pins the
// pool against hypermm.Run itself, and a test-planted broken kernel
// (SetRunHook) would break both sides equally and hide here.
func checkPoolEquiv(c Case) error {
	A, B := c.Operands()
	cfg := c.cleanConfig()
	pool := hypermm.NewMachinePool(1)
	defer pool.Close()
	algs := Algorithms(c.N, c.P)
	if len(algs) > poolEquivAlgs {
		algs = algs[:poolEquivAlgs]
	}
	for _, alg := range algs {
		for round := 1; round <= 2; round++ {
			fresh, err := hypermm.Run(alg, cfg, A, B)
			if err != nil {
				return fmt.Errorf("%s: fresh run %d: %v", alg.Name(), round, err)
			}
			warm, err := pool.RunOn(alg, cfg, A, B)
			if err != nil {
				return fmt.Errorf("%s: pooled run %d: %v", alg.Name(), round, err)
			}
			if err := equalResults(fresh, warm); err != nil {
				return fmt.Errorf("%s: pooled run %d diverged from fresh machine: %v", alg.Name(), round, err)
			}
		}
		if c.Recoverable() {
			fcfg := c.faultConfig()
			fresh, err := hypermm.Run(alg, fcfg, A, B)
			if err != nil {
				return fmt.Errorf("%s: fresh faulted run: %v", alg.Name(), err)
			}
			warm, err := pool.RunOn(alg, fcfg, A, B)
			if err != nil {
				return fmt.Errorf("%s: pooled faulted run: %v", alg.Name(), err)
			}
			if err := equalResults(fresh, warm); err != nil {
				return fmt.Errorf("%s: pooled faulted run diverged from fresh machine: %v", alg.Name(), err)
			}
		}
	}
	if st := pool.Stats(); st.Hits == 0 {
		return fmt.Errorf("pool reported no hits over repeated same-shape runs: %+v", st)
	}
	return nil
}

// clusterEquivAlgs bounds how many algorithms the cluster-equivalence
// oracle routes per case: each costs two full runs plus a round trip of
// both operands and the product over loopback TCP.
const clusterEquivAlgs = 2

// checkClusterEquiv boots a real coordinator and two workers over
// loopback TCP and routes each algorithm through cluster.Submit: the
// emulator is deterministic in (alg, cfg, A, B) regardless of which
// process hosts it, and the wire codec is bit-exact (raw float64 words,
// not decimal JSON), so the routed result must equal a local run
// byte-for-byte. Recoverable fault plans travel the wire too — the
// retry counters must survive serialization.
//
// Like poolequiv, this deliberately bypasses the runDistributed hook:
// the oracle pins the cluster tier against hypermm.Run itself, and a
// test-planted broken kernel would break both sides equally and hide.
func checkClusterEquiv(c Case) error {
	coord, err := cluster.NewCoordinator(cluster.Config{
		Addr:          "127.0.0.1:0",
		ProbeInterval: 200 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("coordinator: %v", err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		w, err := cluster.Join(context.Background(), coord.Addr().String(), cluster.WorkerConfig{
			Name: fmt.Sprintf("conf-w%d", i), Exec: cluster.LocalExec,
		})
		if err != nil {
			return fmt.Errorf("worker %d join: %v", i, err)
		}
		go w.Serve(context.Background())
		defer w.Abort()
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() != 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("worker registrations stuck at %d", coord.WorkerCount())
		}
		time.Sleep(2 * time.Millisecond)
	}

	A, B := c.Operands()
	cfg := c.cleanConfig()
	algs := Algorithms(c.N, c.P)
	if len(algs) > clusterEquivAlgs {
		algs = algs[:clusterEquivAlgs]
	}
	for _, alg := range algs {
		local, err := hypermm.Run(alg, cfg, A, B)
		if err != nil {
			return fmt.Errorf("%s: local run: %v", alg.Name(), err)
		}
		routed, err := coord.Submit(context.Background(), alg, cfg, A, B)
		if err != nil {
			return fmt.Errorf("%s: cluster submit: %v", alg.Name(), err)
		}
		if err := equalResults(local, routed); err != nil {
			return fmt.Errorf("%s: cluster-routed run diverged from local: %v", alg.Name(), err)
		}
		if c.Recoverable() {
			fcfg := c.faultConfig()
			local, err := hypermm.Run(alg, fcfg, A, B)
			if err != nil {
				return fmt.Errorf("%s: local faulted run: %v", alg.Name(), err)
			}
			routed, err := coord.Submit(context.Background(), alg, fcfg, A, B)
			if err != nil {
				return fmt.Errorf("%s: faulted cluster submit: %v", alg.Name(), err)
			}
			if err := equalResults(local, routed); err != nil {
				return fmt.Errorf("%s: faulted cluster-routed run diverged from local: %v", alg.Name(), err)
			}
			observeRetries(routed.Comm.Retries)
		}
	}
	if st := coord.Stats(); st.Failovers != 0 {
		return fmt.Errorf("healthy loopback cluster recorded %d failovers", st.Failovers)
	}
	return nil
}

// equalResults demands bitwise equality: same product bytes, same
// simulated Elapsed, same counters.
func equalResults(a, b *hypermm.Result) error {
	if a.C.Rows != b.C.Rows || a.C.Cols != b.C.Cols {
		return fmt.Errorf("product shape %dx%d vs %dx%d", a.C.Rows, a.C.Cols, b.C.Rows, b.C.Cols)
	}
	for i := range a.C.Data {
		if a.C.Data[i] != b.C.Data[i] {
			return fmt.Errorf("product bytes differ at word %d: %g vs %g", i, a.C.Data[i], b.C.Data[i])
		}
	}
	if a.Elapsed != b.Elapsed {
		return fmt.Errorf("Elapsed %g vs %g", a.Elapsed, b.Elapsed)
	}
	if a.Comm != b.Comm {
		return fmt.Errorf("CommStats %+v vs %+v", a.Comm, b.Comm)
	}
	return nil
}

// retryCounter aggregates retries recovered during faultequiv checks so
// the engine can report whether the sampled mix exercised the retry
// path at all. Reset by Run; not goroutine-safe (the engine is serial).
var retryCounter int64

func observeRetries(n int64) { retryCounter += n }
