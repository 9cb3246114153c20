// Command sweep measures every runnable algorithm across a sweep of
// machine sizes (fixed n) or matrix sizes (fixed p), printing measured
// simulated times next to the analytic Table 2 predictions — the data
// behind the paper's Section 5 crossover claims.
//
// Rows are evaluated concurrently over a worker pool (each cell is an
// independent emulation with its own machine) and printed in sweep
// order, so the output bytes are identical to a serial run.
//
// Usage:
//
//	sweep -axis p -n 256 -ts 150 -tw 3            # p = 4..4096
//	sweep -axis n -p 64 -ports multi              # n sweep on 64 nodes
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"hypermm"
)

func main() {
	var (
		axis  = flag.String("axis", "p", "sweep axis: p (machine size) or n (matrix size)")
		n     = flag.Int("n", 256, "matrix size (fixed when sweeping p)")
		p     = flag.Int("p", 64, "processors (fixed when sweeping n)")
		ports = flag.String("ports", "one", "port model: one or multi")
		ts    = flag.Float64("ts", 150, "start-up cost t_s")
		tw    = flag.Float64("tw", 3, "per-word cost t_w")
	)
	flag.Parse()

	pm, err := hypermm.ParsePortModel(*ports)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	algs := []hypermm.Algorithm{
		hypermm.Simple, hypermm.Cannon, hypermm.HJE, hypermm.Berntsen,
		hypermm.DNS, hypermm.ThreeDiag, hypermm.AllTrans, hypermm.ThreeAll,
	}

	type point struct {
		label string
		p, n  int
	}
	var points []point
	switch *axis {
	case "p":
		fmt.Printf("Communication time sweep over p (n=%d, %v, t_s=%g, t_w=%g)\n", *n, pm, *ts, *tw)
		fmt.Printf("  cells: measured/analytic; '-' = not runnable at that size\n")
		for _, pp := range []int{4, 8, 16, 64, 256, 512, 4096} {
			points = append(points, point{fmt.Sprintf("p=%d", pp), pp, *n})
		}
	case "n":
		fmt.Printf("Communication time sweep over n (p=%d, %v, t_s=%g, t_w=%g)\n", *p, pm, *ts, *tw)
		for _, nn := range []int{32, 64, 128, 256, 512} {
			points = append(points, point{fmt.Sprintf("n=%d", nn), *p, nn})
		}
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown axis %q\n", *axis)
		os.Exit(1)
	}
	header(algs)

	// Evaluate rows concurrently, print in sweep order: each row is a
	// fully independent set of emulations, and assembling its text off
	// to the side keeps the output bytes identical to a serial sweep.
	rows := make([]string, len(points))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pt := range points {
		wg.Add(1)
		go func(i int, pt point) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i] = row(pt.label, algs, pt.p, pt.n, pm, *ts, *tw)
		}(i, pt)
	}
	wg.Wait()
	for _, r := range rows {
		fmt.Print(r)
	}
}

func header(algs []hypermm.Algorithm) {
	fmt.Printf("%-8s", "")
	for _, a := range algs {
		fmt.Printf(" %-21s", a.Name())
	}
	fmt.Println()
}

func row(label string, algs []hypermm.Algorithm, p, n int, pm hypermm.PortModel, ts, tw float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", label)
	A := hypermm.RandomMatrix(n, n, 3)
	B := hypermm.RandomMatrix(n, n, 4)
	for _, alg := range algs {
		analytic, okA := hypermm.CommTime(alg, float64(n), float64(p), ts, tw, pm)
		res, err := hypermm.Run(alg, hypermm.Config{P: p, Ports: pm, Ts: ts, Tw: tw, Tc: 0}, A, B)
		switch {
		case err == nil && okA:
			fmt.Fprintf(&sb, " %9.3g/%-11.3g", res.Elapsed, analytic)
		case err == nil:
			fmt.Fprintf(&sb, " %9.3g/%-11s", res.Elapsed, "n/a")
		default:
			fmt.Fprintf(&sb, " %-21s", "-")
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}
