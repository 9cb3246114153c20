package main

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"hypermm"
	"hypermm/internal/algorithms"
	"hypermm/internal/core"
	"hypermm/internal/cost"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
	"hypermm/internal/trace"
)

// variant is one -alg of hmm run and hmm layout: an algorithm-table
// entry, or one of the paper's constructions outside the table.
type variant struct {
	name, title string // title is run's heading; %d marks the parameter
	aliases     []string
	param       string                                   // the run flag carrying the parameter, if any
	alg         hypermm.Algorithm                        // -1 outside the table, where TotalTime has no answer
	dist        func(p int) (layout.Distribution, error) // nil: it needs the parameter
	topo        simnet.Topology
	run         func(m *simnet.Machine, A, B *matrix.Dense, param int) (*matrix.Dense, simnet.RunStats, error)
}

// variants lists the algorithm table, then the rectangular-grid 3-D All
// (Section 4.2.2's closing remark), the DNS+Cannon and 3DD+Cannon
// combinations (Section 3.5), Cannon on a native 2-D torus (Section
// 3.2) and 3DD_Trans (Section 4.1.1).
var variants = append(tableVariants(),
	variant{name: "3dgrid", title: "3D All (grid, qy=%d)", param: "qy", alg: -1, run: core.ThreeAllGrid},
	variant{name: "dnscannon", title: "DNS+Cannon (s=%d)", param: "s", alg: -1, run: algorithms.DNSCannon},
	variant{name: "3ddcannon", title: "3DD+Cannon (s=%d)", param: "s", alg: -1, run: core.ThreeDiagCannon},
	variant{name: "cannontorus", title: "Cannon (2-D torus)", alg: -1, dist: layout.Torus, topo: simnet.Torus2D,
		run: noParam(algorithms.CannonTorus)},
	variant{name: "3ddtrans", title: "3DD_Trans", alg: -1, dist: layout.DiagPlaneTrans, run: noParam(core.ThreeDiagTrans)},
)

func tableVariants() (vs []variant) {
	for _, alg := range hypermm.Algorithms {
		e, _ := cost.Lookup(cost.Alg(alg))
		vs = append(vs, variant{name: e.Name, title: e.Title, aliases: e.Aliases, alg: alg, dist: e.Dist, run: noParam(e.Multiply)})
	}
	return vs
}

// noParam adapts a runner that takes no parameter.
func noParam(run cost.Runner) func(*simnet.Machine, *matrix.Dense, *matrix.Dense, int) (*matrix.Dense, simnet.RunStats, error) {
	return func(m *simnet.Machine, A, B *matrix.Dense, _ int) (*matrix.Dense, simnet.RunStats, error) {
		return run(m, A, B)
	}
}

// lookupVariant resolves an -alg name or alias.
func lookupVariant(name string) (*variant, error) {
	i := slices.IndexFunc(variants, func(v variant) bool { return v.name == name || slices.Contains(v.aliases, name) })
	if i < 0 {
		return nil, fmt.Errorf("unknown algorithm %q (-h lists the names)", name)
	}
	return &variants[i], nil
}

// cmdRun multiplies two random matrices on a simulated multicomputer
// with a chosen algorithm and reports the simulated time, communication
// counters, and verification against the serial product.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flags("run", stderr)
	var (
		algName = fs.String("alg", "3dall", "algorithm: simple, cannon, hje, berntsen, dns, 2dd, 3dd, alltrans, 3dall, fox, 3dgrid (with -qy), dnscannon and 3ddcannon (with -s), cannontorus, 3ddtrans")
		n       = fs.Int("n", 256, "matrix size n (n x n operands)")
		p       = fs.Int("p", 64, "number of processors (power of two; square for cannontorus)")
		ports   = fs.String("ports", "one", "port model: one or multi")
		ts      = fs.Float64("ts", 150, "message start-up time t_s")
		tw      = fs.Float64("tw", 3, "per-word transfer time t_w")
		tc      = fs.Float64("tc", 0.5, "per-flop compute time t_c")
		seed    = fs.Int64("seed", 1, "random seed for the operands")
		verify  = fs.Bool("verify", true, "check the result against the serial product")
		showTr  = fs.Bool("trace", false, "print a per-node timeline and utilization summary (small p recommended)")
		qy      = fs.Int("qy", 0, "y extent for -alg 3dgrid (the rectangular 3-D All variant)")
		sn      = fs.Int("s", 0, "supernode count for -alg dnscannon and 3ddcannon")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(err error) int { return fail(stderr, "run", exitUsage, err) }

	pm, err := hypermm.ParsePortModel(*ports)
	if err != nil {
		return usage(err)
	}
	v, err := lookupVariant(*algName)
	if err != nil {
		return usage(err)
	}
	if *n < 1 {
		return usage(fmt.Errorf("-n %d: the matrices need n >= 1", *n))
	}
	param := map[string]int{"qy": *qy, "s": *sn}[v.param]
	if v.param != "" && param <= 0 {
		return usage(fmt.Errorf("-alg %s needs -%s", v.name, v.param))
	}
	label := strings.Replace(v.title, "%d", strconv.Itoa(param), 1)

	cfg := simnet.Config{P: *p, Ports: simnet.PortModel(pm), Ts: *ts, Tw: *tw, Tc: *tc, Topology: v.topo}
	if *showTr {
		cfg.Trace = trace.New()
	}
	if err := cfg.Validate(); err != nil {
		return fail(stderr, "run", exitFail, err)
	}
	A, B := matrix.Random(*n, *n, *seed), matrix.Random(*n, *n, *seed+1)
	C, rs, err := v.run(simnet.NewMachine(cfg), A, B, param)
	if err != nil {
		return fail(stderr, "run", exitFail, err)
	}

	fmt.Fprintf(stdout, "%s on a %d-processor %v machine, n=%d (t_s=%g t_w=%g t_c=%g)\n",
		label, *p, pm, *n, *ts, *tw, *tc)
	fmt.Fprintf(stdout, "  simulated time      %12.1f\n", rs.Elapsed)
	if t, ok := hypermm.TotalTime(v.alg, float64(*n), float64(*p), *ts, *tw, *tc, pm); ok {
		fmt.Fprintf(stdout, "  analytic (Table 2)  %12.1f\n", t)
	}
	fmt.Fprintf(stdout, "  messages            %12d\n", rs.TotalMsgs)
	fmt.Fprintf(stdout, "  words moved         %12d\n", rs.TotalWords)
	fmt.Fprintf(stdout, "  start-ups (hops)    %12d\n", rs.TotalStartups)
	fmt.Fprintf(stdout, "  flops               %12d\n", rs.TotalFlops)
	fmt.Fprintf(stdout, "  peak space (total)  %12d words\n", rs.TotalPeak)

	if cfg.Trace != nil {
		fmt.Fprintf(stdout, "\n%s\n%s", cfg.Trace.Gantt(100), cfg.Trace.Summary())
	}

	if *verify {
		tol := 1e-8 * float64(*n)
		if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > tol {
			return fail(stderr, "run", exitFail, fmt.Errorf("result differs from serial product by %g (tol %g)", d, tol))
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
		algName = fs.String("alg", "3dall", "algorithm: simple, cannon, hje, fox, dns, 2dd, 3dd, 3ddtrans, alltrans, 3dall, berntsen, cannontorus")
		p       = fs.Int("p", 64, "processors")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	v, err := lookupVariant(*algName)
	if err != nil {
		return fail(stderr, "layout", exitUsage, err)
	}
	if v.dist == nil {
		return fail(stderr, "layout", exitUsage, fmt.Errorf("-alg %s needs -%s, which layout does not take", v.name, v.param))
	}
	d, err := v.dist(*p)
	if err != nil {
		return fail(stderr, "layout", exitFail, fmt.Errorf("%s: %w", v.name, err))
	}
	fmt.Fprintf(stdout, "%s on %d processors\n\n", v.name, *p)
	fmt.Fprintf(stdout, "A:\n%s\nB:\n%s\nC:\n%s\n", d.A.Render(), d.B.Render(), d.C.Render())
	if d.Aligned() {
		fmt.Fprintln(stdout, "result ALIGNED with operands: multiplications chain with zero redistribution")
	} else {
		fmt.Fprintln(stdout, "result NOT aligned with operands: chaining requires redistribution")
	}
	return exitOK
}
