package main

import (
	"errors"
	"fmt"
	"io"

	"hypermm"
	"hypermm/internal/cost"
	"hypermm/internal/layout"
)

// cmdRun multiplies two random matrices on a simulated hypercube
// multicomputer with a chosen algorithm and reports the simulated time,
// communication counters, and verification against the serial product.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flags("run", stderr)
	var (
		algName = fs.String("alg", "3dall", "algorithm: simple, cannon, hje, berntsen, dns, fox, 2dd, 3dd, alltrans, 3dall, 3dgrid (with -qy), dnscannon (with -s), 3ddcannon (with -s), cannontorus")
		n       = fs.Int("n", 256, "matrix size n (n x n operands)")
		p       = fs.Int("p", 64, "number of processors (power of two)")
		ports   = fs.String("ports", "one", "port model: one or multi")
		ts      = fs.Float64("ts", 150, "message start-up time t_s")
		tw      = fs.Float64("tw", 3, "per-word transfer time t_w")
		tc      = fs.Float64("tc", 0.5, "per-flop compute time t_c")
		seed    = fs.Int64("seed", 1, "random seed for the operands")
		verify  = fs.Bool("verify", true, "check the result against the serial product")
		showTr  = fs.Bool("trace", false, "print a per-node timeline and utilization summary (table algorithms only; small p recommended)")
		qy      = fs.Int("qy", 0, "y extent for -alg 3dgrid (the rectangular 3-D All variant)")
		sn      = fs.Int("s", 0, "supernode count for -alg dnscannon")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(err error) int { return fail(stderr, "run", exitUsage, err) }

	pm, err := hypermm.ParsePortModel(*ports)
	if err != nil {
		return usage(err)
	}
	alg, algErr := hypermm.ParseAlgorithm(*algName)
	if *showTr && algErr != nil {
		return usage(fmt.Errorf("-alg %s has no traced runner; -trace needs a table algorithm", *algName))
	}

	A := hypermm.RandomMatrix(*n, *n, *seed)
	B := hypermm.RandomMatrix(*n, *n, *seed+1)
	cfg := hypermm.Config{P: *p, Ports: pm, Ts: *ts, Tw: *tw, Tc: *tc}

	var res *hypermm.Result
	var tr *hypermm.Trace
	var label string
	switch *algName {
	case "3dgrid":
		if *qy <= 0 {
			return usage(errors.New("-alg 3dgrid needs -qy"))
		}
		label = fmt.Sprintf("3D All (grid, qy=%d)", *qy)
		res, err = hypermm.RunThreeAllGrid(cfg, A, B, *qy)
	case "dnscannon":
		if *sn <= 0 {
			return usage(errors.New("-alg dnscannon needs -s"))
		}
		label = fmt.Sprintf("DNS+Cannon (s=%d)", *sn)
		res, err = hypermm.RunDNSCannon(cfg, A, B, *sn)
	case "3ddcannon":
		if *sn <= 0 {
			return usage(errors.New("-alg 3ddcannon needs -s"))
		}
		label = fmt.Sprintf("3DD+Cannon (s=%d)", *sn)
		res, err = hypermm.RunThreeDiagCannon(cfg, A, B, *sn)
	case "cannontorus":
		label = "Cannon (2-D torus)"
		res, err = hypermm.RunCannonTorus(cfg, A, B)
	default:
		if algErr != nil {
			return usage(algErr)
		}
		label = alg.String()
		if *showTr {
			res, tr, err = hypermm.RunTraced(alg, cfg, A, B)
		} else {
			res, err = hypermm.Run(alg, cfg, A, B)
		}
	}
	if err != nil {
		return fail(stderr, "run", exitFail, err)
	}

	fmt.Fprintf(stdout, "%s on a %d-processor %v machine, n=%d (t_s=%g t_w=%g t_c=%g)\n",
		label, *p, pm, *n, *ts, *tw, *tc)
	fmt.Fprintf(stdout, "  simulated time      %12.1f\n", res.Elapsed)
	if algErr == nil {
		if t, ok := hypermm.TotalTime(alg, float64(*n), float64(*p), *ts, *tw, *tc, pm); ok {
			fmt.Fprintf(stdout, "  analytic (Table 2)  %12.1f\n", t)
		}
	}
	fmt.Fprintf(stdout, "  messages            %12d\n", res.Comm.Msgs)
	fmt.Fprintf(stdout, "  words moved         %12d\n", res.Comm.Words)
	fmt.Fprintf(stdout, "  start-ups (hops)    %12d\n", res.Comm.Startups)
	fmt.Fprintf(stdout, "  flops               %12d\n", res.Comm.Flops)
	fmt.Fprintf(stdout, "  peak space (total)  %12d words\n", res.Comm.PeakWordsTotal)

	if tr != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tr.Gantt(100))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tr.Summary())
	}

	if *verify {
		if err := hypermm.Verify(A, B, res.C, 1e-8*float64(*n)); err != nil {
			return fail(stderr, "run", exitFail, err)
		}
		fmt.Fprintln(stdout, "  verification        OK (matches serial product)")
	}
	return exitOK
}

// cmdLayout prints the block-ownership maps of an algorithm's operand
// and result distributions — which processor owns which block — and
// whether the result is aligned with the operands (the paper's
// chaining property). The maps are the table entry's Dist, the one a
// run scatters and gathers through.
func cmdLayout(args []string, stdout, stderr io.Writer) int {
	fs := flags("layout", stderr)
	var (
		algName = fs.String("alg", "3dall", "algorithm: simple, cannon, hje, fox, dns, 2dd, 3dd, 3ddtrans, alltrans, 3dall, berntsen")
		p       = fs.Int("p", 64, "processors")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	// 3ddtrans is Section 4.1.1's stepping stone: a runner outside the
	// algorithm table, so it is the one name resolved here.
	name, dist := *algName, layout.DiagPlaneTrans
	if name != "3ddtrans" {
		alg, err := hypermm.ParseAlgorithm(name)
		if err != nil {
			return fail(stderr, "layout", exitUsage, err)
		}
		e, _ := cost.Lookup(cost.Alg(alg))
		name, dist = e.Name, e.Dist
	}
	d, err := dist(*p)
	if err != nil {
		return fail(stderr, "layout", exitFail, fmt.Errorf("%s: %w", name, err))
	}
	fmt.Fprintf(stdout, "%s on %d processors\n\n", name, *p)
	fmt.Fprintln(stdout, "A:")
	fmt.Fprint(stdout, d.A.Render())
	fmt.Fprintln(stdout, "\nB:")
	fmt.Fprint(stdout, d.B.Render())
	fmt.Fprintln(stdout, "\nC:")
	fmt.Fprint(stdout, d.C.Render())
	fmt.Fprintln(stdout)
	if d.Aligned() {
		fmt.Fprintln(stdout, "result ALIGNED with operands: multiplications chain with zero redistribution")
	} else {
		fmt.Fprintln(stdout, "result NOT aligned with operands: chaining requires redistribution")
	}
	return exitOK
}
