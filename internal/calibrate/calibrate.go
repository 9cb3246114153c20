// Package calibrate closes the loop between the paper's analytic cost
// model and the message-level emulator: it runs deterministic
// measurement sweeps over (algorithm, n, p) on the simulated hypercube,
// fits effective (t_s, t_w) machine parameters and per-algorithm
// residual correction factors to the measured simulated times by least
// squares, and packages the result as a versioned JSON calibration
// profile that cmd/hmmd can load so every plan the daemon serves is
// measurement-driven instead of faith-in-Table-2. It also quantifies
// the model: per-algorithm prediction-error reports, measured
// communication volume against the memory-independent lower bounds of
// Ballard/Demmel et al. (arXiv:1202.3177), and empirical best-algorithm
// region maps diffed cell by cell against the analytic Figure 13/14
// maps.
//
// Everything in this package is deterministic: the same Spec always
// produces byte-identical profiles and reports, regardless of worker
// count or goroutine scheduling.
package calibrate

import (
	"fmt"
	"runtime"
	"sync"

	"hypermm"
)

// Spec describes one measurement sweep.
type Spec struct {
	Ports hypermm.PortModel
	// Ns and Ps are the matrix and machine sizes of the grid. Every P
	// must be a power of two; cells an algorithm cannot run (layout or
	// applicability) are skipped, not errors.
	Ns, Ps []int
	// Algs is the candidate set; nil means hypermm.Candidates(Ports),
	// the same set the planner and the region maps choose from.
	Algs []hypermm.Algorithm
	// Workers bounds the number of concurrent cell emulations;
	// 0 means GOMAXPROCS.
	Workers int
}

// Measurement is one successfully emulated sweep cell: the measured
// communication coefficients and volume of one algorithm at one (n, p).
type Measurement struct {
	Alg hypermm.Algorithm
	N   int
	P   int
	// A and B are the measured communication-time coefficients —
	// simulated elapsed time with (t_s, t_w) = (1, 0) and (0, 1),
	// computation free — directly comparable to the analytic Table 2
	// (a, b) from hypermm.Overhead.
	A, B float64
	// Words is the total payload words sent across all processors.
	Words int64
}

// Time is the measured communication time at machine parameters
// (ts, tw): ts*A + tw*B (the emulator's clock is exactly linear in
// them).
func (m *Measurement) Time(ts, tw float64) float64 { return ts*m.A + tw*m.B }

// Sweep is the outcome of one measurement sweep: the cells that ran,
// in deterministic (algorithm, n, p) order.
type Sweep struct {
	Spec  Spec
	Cells []Measurement
}

// Run executes the sweep: for every (algorithm, n, p) cell it runs the
// real SPMD program twice on the emulator — (t_s, t_w) = (1, 0) and
// (0, 1), computation free — to measure the cell's communication
// coefficients, skipping cells the algorithm cannot run. Cells are
// emulated concurrently over a bounded worker pool; the assembled
// result is identical regardless of scheduling.
func Run(spec Spec) (*Sweep, error) {
	if len(spec.Ns) == 0 || len(spec.Ps) == 0 {
		return nil, fmt.Errorf("calibrate: sweep needs at least one n and one p")
	}
	for _, n := range spec.Ns {
		if n < 1 {
			return nil, fmt.Errorf("calibrate: invalid matrix size n=%d", n)
		}
	}
	for _, p := range spec.Ps {
		if p < 2 || p&(p-1) != 0 {
			return nil, fmt.Errorf("calibrate: machine size p=%d is not a power of two >= 2", p)
		}
	}
	if spec.Algs == nil {
		spec.Algs = hypermm.Candidates(spec.Ports)
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type cell struct {
		alg  hypermm.Algorithm
		n, p int
	}
	var cells []cell
	for _, alg := range spec.Algs {
		for _, n := range spec.Ns {
			for _, p := range spec.Ps {
				cells = append(cells, cell{alg, n, p})
			}
		}
	}

	// Each slot is filled independently; compacting in slot order keeps
	// the output deterministic for any worker count.
	results := make([]*Measurement, len(cells))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = measure(c.alg, c.n, c.p, spec.Ports)
		}(i, c)
	}
	wg.Wait()

	sw := &Sweep{Spec: spec}
	for _, m := range results {
		if m != nil {
			sw.Cells = append(sw.Cells, *m)
		}
	}
	if len(sw.Cells) == 0 {
		return nil, fmt.Errorf("calibrate: no cell of the sweep was runnable")
	}
	return sw, nil
}

// measure emulates one cell, or returns nil if the algorithm cannot
// run there (inapplicable or layout-impossible sizes).
func measure(alg hypermm.Algorithm, n, p int, ports hypermm.PortModel) *Measurement {
	if !hypermm.Applicable(alg, float64(n), float64(p)) {
		return nil
	}
	A := hypermm.RandomMatrix(n, n, 7)
	B := hypermm.RandomMatrix(n, n, 8)
	m := &Measurement{Alg: alg, N: n, P: p}
	for i, pair := range [][2]float64{{1, 0}, {0, 1}} {
		res, err := hypermm.Run(alg, hypermm.Config{
			P: p, Ports: ports, Ts: pair[0], Tw: pair[1], Tc: 0,
		}, A, B)
		if err != nil {
			return nil
		}
		if i == 0 {
			m.A = res.Elapsed
			m.Words = res.Comm.Words
		} else {
			m.B = res.Elapsed
		}
	}
	return m
}

// ByAlg groups the sweep's cells by algorithm, preserving order.
func (s *Sweep) ByAlg() map[hypermm.Algorithm][]Measurement {
	out := map[hypermm.Algorithm][]Measurement{}
	for _, m := range s.Cells {
		out[m.Alg] = append(out[m.Alg], m)
	}
	return out
}
