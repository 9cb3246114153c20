package hypermm_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hypermm"
)

// Multiply two matrices with the paper's 3-D All algorithm on a
// simulated 64-node one-port hypercube, verify the product, compare
// the simulated time with the analytic Table 2 prediction, and run the
// same job with Cannon's algorithm.
func ExampleRun() {
	A := hypermm.RandomMatrix(64, 64, 1)
	B := hypermm.RandomMatrix(64, 64, 2)
	cfg := hypermm.Config{P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0}
	res, err := hypermm.Run(hypermm.ThreeAll, cfg, A, B)
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", hypermm.Verify(A, B, res.C, 1e-6) == nil)
	fmt.Println("simulated communication time:", res.Elapsed)
	t, _ := hypermm.TotalTime(hypermm.ThreeAll, 64, 64, cfg.Ts, cfg.Tw, cfg.Tc, cfg.Ports)
	fmt.Println("analytic (Table 2):", t)
	fmt.Printf("moved %d words in %d messages\n", res.Comm.Words, res.Comm.Msgs)

	cannon, err := hypermm.Run(hypermm.Cannon, cfg, A, B)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Cannon on the same machine: %.0f (%.1fx slower)\n", cannon.Elapsed, cannon.Elapsed/res.Elapsed)
	// Output:
	// verified: true
	// simulated communication time: 3120
	// analytic (Table 2): 3120
	// moved 40960 words in 512 messages
	// Cannon on the same machine: 6840 (2.2x slower)
}

// Table 2 coefficients: communication time is t_s*a + t_w*b.
func ExampleOverhead() {
	a, b, ok := hypermm.Overhead(hypermm.ThreeAll, 256, 64, hypermm.OnePort)
	fmt.Printf("ok=%v a=%.0f b=%.0f\n", ok, a, b)
	// The measured coefficients from the emulator agree.
	am, bm, _ := hypermm.MeasuredOverhead(hypermm.ThreeAll, 64, 256, hypermm.OnePort)
	fmt.Printf("measured a=%.0f b=%.0f\n", am, bm)
	// Output:
	// ok=true a=8 b=10240
	// measured a=8 b=10240
}

// Which algorithm should a given machine run? One query per regime of
// the paper's Figure 13 (one-port, t_s=150, t_w=3).
func ExampleBestAlgorithm() {
	for _, q := range []struct{ n, p float64 }{
		{4096, 64},   // huge matrix, small machine
		{1024, 4096}, // p just under n^1.5
		{256, 65536}, // n^1.5 < p <= n^2
		{64, 262144}, // n^2 < p <= n^3
		{16, 8192},   // p > n^3
	} {
		alg, ok := hypermm.BestAlgorithm(q.n, q.p, 150, 3, hypermm.OnePort)
		if !ok {
			fmt.Printf("n=%.0f p=%.0f -> no algorithm applicable\n", q.n, q.p)
			continue
		}
		t, _ := hypermm.CommTime(alg, q.n, q.p, 150, 3, hypermm.OnePort)
		fmt.Printf("n=%.0f p=%.0f -> %v (comm time %.3g)\n", q.n, q.p, alg, t)
	}
	// Output:
	// n=4096 p=64 -> 3D All (comm time 7.87e+06)
	// n=1024 p=4096 -> 3D All (comm time 3.85e+04)
	// n=256 p=65536 -> 3DD (comm time 5.78e+03)
	// n=64 p=262144 -> 3DD (comm time 3.67e+03)
	// n=16 p=8192 -> no algorithm applicable
}

// Table 1: the optimal collective costs the algorithms build on.
func ExampleCollectiveCost() {
	a, b := hypermm.CollectiveCost(hypermm.AllToAllBcast, 8, 96, hypermm.OnePort)
	fmt.Printf("all-to-all broadcast, one-port: a=%.0f b=%.0f\n", a, b)
	a, b = hypermm.CollectiveCost(hypermm.AllToAllBcast, 8, 96, hypermm.MultiPort)
	fmt.Printf("all-to-all broadcast, multi-port: a=%.0f b=%.0f\n", a, b)
	// Output:
	// all-to-all broadcast, one-port: a=3 b=672
	// all-to-all broadcast, multi-port: a=3 b=224
}

// Isoefficiency, the scalability metric of Gupta and Kumar: the
// problem size needed to keep an algorithm at 50% efficiency. 3-D All's
// lower communication overhead makes its curve the flattest.
func ExampleIsoefficiencyN() {
	for _, p := range []float64{64, 4096} {
		for _, alg := range []hypermm.Algorithm{hypermm.Cannon, hypermm.ThreeAll} {
			n, _ := hypermm.IsoefficiencyN(alg, p, 0.5, 150, 3, 0.5, hypermm.OnePort)
			fmt.Printf("p=%.0f %v needs n>=%.0f\n", p, alg, n)
		}
	}
	// Output:
	// p=64 Cannon needs n>=86
	// p=64 3D All needs n>=55
	// p=4096 Cannon needs n>=629
	// p=4096 3D All needs n>=273
}

// Where does the time go? Trace Cannon and 3-D All on one machine and
// compare the overall compute/communication split of each.
func ExampleRunTraced() {
	A := hypermm.RandomMatrix(128, 128, 1)
	B := hypermm.RandomMatrix(128, 128, 2)
	cfg := hypermm.Config{P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5}
	for _, alg := range []hypermm.Algorithm{hypermm.Cannon, hypermm.ThreeAll} {
		res, tr, err := hypermm.RunTraced(alg, cfg, A, B)
		if err != nil {
			panic(err)
		}
		lines := strings.Split(strings.TrimSpace(tr.Summary()), "\n")
		fmt.Printf("%-8s elapsed %6.0f  %s\n", alg.Name(), res.Elapsed, lines[len(lines)-1])
	}
	// Output:
	// cannon   elapsed  51128  overall: 51.2% compute, 48.8% communication (of busy time)
	// 3dall    elapsed  42032  overall: 65.1% compute, 34.9% communication (of busy time)
}

// A strong-scaling study: a fixed 256 x 256 multiplication on growing
// hypercubes. Where an algorithm's grid does not fit p, the analytic
// Table 2 time stands in (marked *).
func ExampleRun_strongScaling() {
	const n, ts, tw, tc = 256, 150.0, 3.0, 0.5
	serial := 2 * n * n * n * tc
	A := hypermm.RandomMatrix(n, n, 1)
	B := hypermm.RandomMatrix(n, n, 2)
	for _, p := range []int{64, 512, 4096} {
		cfg := hypermm.Config{P: p, Ports: hypermm.OnePort, Ts: ts, Tw: tw, Tc: tc}
		fmt.Printf("p=%-5d", p)
		for _, alg := range []hypermm.Algorithm{hypermm.Cannon, hypermm.ThreeAll} {
			t, mark := 0.0, ""
			if res, err := hypermm.Run(alg, cfg, A, B); err == nil && hypermm.Verify(A, B, res.C, 1e-6) == nil {
				t = res.Elapsed
			} else {
				t, _ = hypermm.TotalTime(alg, n, float64(p), ts, tw, tc, cfg.Ports)
				mark = "*"
			}
			fmt.Printf("  %s %.3g%s (efficiency %.0f%%)", alg.Name(), t, mark, 100*serial/t/float64(p))
		}
		fmt.Println()
	}
	// Output:
	// p=64     cannon 3.27e+05 (efficiency 80%)  3dall 2.96e+05 (efficiency 89%)
	// p=512    cannon 6.07e+04* (efficiency 54%)  3dall 4.37e+04 (efficiency 75%)
	// p=4096   cannon 3.14e+04 (efficiency 13%)  3dall 8.87e+03 (efficiency 46%)
}

// Transitive closure by repeated distributed squaring — the
// decomposition of graph algorithms into matrix products that the
// paper's introduction motivates. A random digraph's boolean adjacency
// matrix (with self loops) is squared ceil(log2 n) times with the 3-D
// Diagonal algorithm, clamping entries to {0, 1} between rounds, and
// the result is checked against a serial search from every vertex.
func ExampleRun_transitiveClosure() {
	const verts = 64
	rng := rand.New(rand.NewSource(42))
	adj := hypermm.NewMatrix(verts, verts)
	for v := 0; v < verts; v++ {
		adj.Set(v, v, 1)
		for e := 0; e < 2; e++ {
			adj.Set(v, rng.Intn(verts), 1)
		}
	}

	cfg := hypermm.Config{P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5}
	reach, rounds, total := adj, 0, 0.0
	for span := 1; span < verts; span *= 2 {
		res, err := hypermm.Run(hypermm.ThreeDiag, cfg, reach, reach)
		if err != nil {
			panic(err)
		}
		reach = hypermm.NewMatrix(verts, verts)
		for i, v := range res.C.Data {
			if v > 0.5 {
				reach.Data[i] = 1
			}
		}
		rounds++
		total += res.Elapsed
	}
	fmt.Printf("%d squarings, simulated time %.0f\n", rounds, total)
	fmt.Println("matches serial search:", hypermm.MaxAbsDiff(reach, closure(adj)) == 0)
	// Output:
	// 6 squarings, simulated time 64668
	// matches serial search: true
}

// closure computes reachability serially, by depth-first search from
// every vertex.
func closure(adj *hypermm.Matrix) *hypermm.Matrix {
	n := adj.Rows
	out := hypermm.NewMatrix(n, n)
	for s := 0; s < n; s++ {
		stack := []int{s}
		out.Set(s, s, 1)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for w := 0; w < n; w++ {
				if out.At(s, w) == 0 && adj.At(v, w) != 0 {
					out.Set(s, w, 1)
					stack = append(stack, w)
				}
			}
		}
	}
	return out
}

// The stationary distribution of a random walk by repeated squaring of
// its transition matrix: P^(2^k) converges to the distribution on
// every row. Each squaring runs distributed with the algorithm the
// analytic model picks for this machine.
func ExampleRun_markov() {
	const states = 64
	rng := rand.New(rand.NewSource(7))
	P := hypermm.NewMatrix(states, states)
	for i := 0; i < states; i++ {
		// A ring with random shortcuts, rows normalized: ergodic.
		P.Set(i, (i+1)%states, 1)
		P.Set(i, i, 0.5)
		for k := 0; k < 3; k++ {
			P.Set(i, rng.Intn(states), rng.Float64())
		}
		var row float64
		for j := 0; j < states; j++ {
			row += P.At(i, j)
		}
		for j := 0; j < states; j++ {
			P.Set(i, j, P.At(i, j)/row)
		}
	}

	alg, _ := hypermm.BestAlgorithm(states, 64, 150, 3, hypermm.OnePort)
	cfg := hypermm.Config{P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5}
	pk, rounds, verified := P, 0, true
	for converged := false; !converged && rounds <= 12; rounds++ {
		res, err := hypermm.Run(alg, cfg, pk, pk)
		if err != nil {
			panic(err)
		}
		verified = verified && hypermm.Verify(pk, pk, res.C, 1e-9) == nil
		converged = hypermm.MaxAbsDiff(pk, res.C) < 1e-12
		pk = res.C
	}
	fmt.Printf("%v converged after %d squarings, each verified: %v\n", alg, rounds, verified)

	// Any row of the limit is the distribution pi: it sums to 1 and is a
	// fixed point of P.
	var sum, residual float64
	for j := 0; j < states; j++ {
		sum += pk.At(0, j)
		var v float64
		for i := 0; i < states; i++ {
			v += pk.At(0, i) * P.At(i, j)
		}
		residual = math.Max(residual, math.Abs(v-pk.At(0, j)))
	}
	fmt.Println("sums to 1:", math.Abs(sum-1) < 1e-9)
	fmt.Println("pi * P == pi:", residual < 1e-9)
	// Output:
	// 3D All converged after 7 squarings, each verified: true
	// sums to 1: true
	// pi * P == pi: true
}
