package conformance

import (
	"errors"
	"fmt"
	"strings"

	"hypermm"
	"hypermm/internal/cost"
	"hypermm/internal/hypercube"
)

// Status classifies one algorithm's outcome on a case.
type Status int

const (
	// OK: ran to completion and matched the serial product.
	OK Status = iota
	// Faulted: failed with a typed injected-fault error (ErrLinkDown or
	// ErrDeadline) — the expected clean failure mode under a hostile
	// plan, never acceptable on a clean case.
	Faulted
	// Failed: wrong product, mismatched counters, or an untyped error.
	Failed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Faulted:
		return "faulted"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Outcome is one algorithm's result on a case.
type Outcome struct {
	Alg     hypermm.Algorithm
	Status  Status
	Err     error   // the typed fault or failure cause (nil when OK)
	Elapsed float64 // simulated makespan (0 when the run errored)
	Retries int64   // lost attempts recovered by the retry protocol
	MaxDiff float64 // max |C - serial| (only when the run completed)
	Note    string  // human-readable detail (reconciliation, fault kind)
}

// Report is the harness verdict for one case.
type Report struct {
	Case      Case
	Tol       float64 // scale-aware element tolerance used
	Outcomes  []Outcome
	CrossDiff float64 // max pairwise element diff between completed algorithms
	OK        bool    // no Outcome Failed, cross-check within tolerance
}

// Runnable reports whether the algorithm's grid embedding and block
// partition exist for an n x n problem on p processors — the runner's
// own shape rule (its table entry's Shape), asked up front so the
// harness can distinguish "not applicable" from "unexpectedly failed".
func Runnable(alg hypermm.Algorithm, n, p int) bool {
	e, ok := cost.Lookup(cost.Alg(alg))
	return ok && n > 0 && hypercube.IsPow2(p) && e.Shape(n, p) == nil
}

// Algorithms returns every algorithm runnable at (n, p).
func Algorithms(n, p int) []hypermm.Algorithm {
	var out []hypermm.Algorithm
	for _, alg := range hypermm.Algorithms {
		if Runnable(alg, n, p) {
			out = append(out, alg)
		}
	}
	return out
}

// Check is the differential harness behind the "differential" oracle:
// every runnable algorithm runs under the case's plan, each product is
// checked against the serial kernel, all completed products are
// cross-checked pairwise, and — on a clean case — measured communication
// overhead is reconciled against the Table 2 analytic bound. The Report
// (simulated clocks included) is bit-identical across invocations of
// the same case.
func Check(c Case) Report {
	A, B := c.Operands()
	want := hypermm.MatMul(A, B)
	r := Report{Case: c, Tol: tolFor(A, B, c.N), OK: true}

	clean := c.Plan == nil || c.Plan.Empty()
	cfg := c.faultConfig()

	var completed []struct {
		alg hypermm.Algorithm
		C   *hypermm.Matrix
	}
	for _, alg := range Algorithms(c.N, c.P) {
		o := Outcome{Alg: alg}
		res, err := runDistributed(alg, cfg, A, B)
		switch {
		case err == nil:
			o.Elapsed = res.Elapsed
			o.Retries = res.Comm.Retries
			o.MaxDiff = hypermm.MaxAbsDiff(res.C, want)
			if o.MaxDiff > r.Tol {
				o.Status = Failed
				o.Err = fmt.Errorf("product off by %g (tol %g)", o.MaxDiff, r.Tol)
			} else if clean {
				if note, ok := reconcile(alg, c, res); !ok {
					o.Status = Failed
					o.Err = errors.New(note)
				} else {
					o.Note = note
				}
			}
			if o.Status == OK {
				completed = append(completed, struct {
					alg hypermm.Algorithm
					C   *hypermm.Matrix
				}{alg, res.C})
			}
		case errors.Is(err, hypermm.ErrLinkDown) || errors.Is(err, hypermm.ErrDeadline):
			o.Err = err
			if clean {
				// Typed faults must never fire without injection.
				o.Status = Failed
			} else {
				o.Status = Faulted
				o.Note = faultKind(err)
			}
		default:
			o.Status = Failed
			o.Err = err
		}
		if o.Status == Failed {
			r.OK = false
		}
		r.Outcomes = append(r.Outcomes, o)
	}

	// Differential cross-check: every pair of completed products must
	// agree element-wise within twice the serial tolerance (each side
	// may deviate from serial by up to Tol in opposite directions).
	for i := 0; i < len(completed); i++ {
		for j := i + 1; j < len(completed); j++ {
			d := hypermm.MaxAbsDiff(completed[i].C, completed[j].C)
			if d > r.CrossDiff {
				r.CrossDiff = d
			}
			if d > 2*r.Tol {
				r.OK = false
				r.Outcomes = append(r.Outcomes, Outcome{
					Alg:    completed[i].alg,
					Status: Failed,
					Err: fmt.Errorf("differs from %v by %g (tol %g)",
						completed[j].alg, d, 2*r.Tol),
				})
			}
		}
	}
	return r
}

// Reconciliation slack against the Table 2 rows. On one-port machines
// the bandwidth term is tight: the emulator pipelines phases the
// analysis charges sequentially, so measured b stays at or below
// analytic. Multi-port rows assume M >= log N so every message splits
// into log N equal slices; with the small blocks the harness samples
// the slices go ragged and measured b can exceed analytic by up to 50%
// (Simple at n=16, p=64: 2x2 blocks cut 6 ways). The start-up term is
// looser on both models: HJE's broadcasts are not pipelined, so its
// measured a exceeds the analytic log-term by a factor growing with p
// (~2.4x at p=64, ~3.4x at p=256); 4x covers every shape the
// generator samples while still catching a phase run twice.
const (
	bandSlackOnePort   = 1 + 1e-9
	bandSlackMultiPort = 1.6
	startupSlack       = 4.0
)

// reconcile checks a clean run's communication against the Table 2
// analytic model (see the slack constants above for what "against"
// means per coefficient); with no plan active the run must also not
// have charged a single retry.
func reconcile(alg hypermm.Algorithm, c Case, res *hypermm.Result) (string, bool) {
	if res.Comm.Retries != 0 {
		return fmt.Sprintf("clean run charged %d retries", res.Comm.Retries), false
	}
	aA, bA, ok := hypermm.Overhead(alg, float64(c.N), float64(c.P), c.Ports)
	if !ok {
		return "no Table 2 row", true // stepping stones have no analytic row
	}
	aM, bM, err := hypermm.MeasuredOverhead(alg, c.P, c.N, c.Ports)
	if err != nil {
		return fmt.Sprintf("measuring overhead: %v", err), false
	}
	if c.P > 1 && (aM <= 0 || bM <= 0) {
		return fmt.Sprintf("measured overhead (%g, %g) not positive", aM, bM), false
	}
	bandSlack := bandSlackOnePort
	if c.Ports == hypermm.MultiPort {
		bandSlack = bandSlackMultiPort
	}
	if bM > bA*bandSlack {
		return fmt.Sprintf("measured bandwidth term %g exceeds analytic %g", bM, bA), false
	}
	if aM > aA*startupSlack {
		return fmt.Sprintf("measured start-up term %g exceeds analytic %g", aM, aA), false
	}
	return fmt.Sprintf("overhead (%.6g, %.6g) vs analytic (%.6g, %.6g)", aM, bM, aA, bA), true
}

func faultKind(err error) string {
	if errors.Is(err, hypermm.ErrDeadline) {
		return "deadline"
	}
	return "link-down"
}

// String renders the report deterministically — identical cases yield
// byte-identical text.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "case %v\n", r.Case)
	for _, o := range r.Outcomes {
		fmt.Fprintf(&sb, "  %-10s %-8s", o.Alg.Name(), o.Status)
		if o.Status == OK || (o.Elapsed > 0 && o.Status == Failed) {
			fmt.Fprintf(&sb, " clock=%-12g diff=%.3g", o.Elapsed, o.MaxDiff)
			if o.Retries > 0 {
				fmt.Fprintf(&sb, " retries=%d", o.Retries)
			}
		}
		if o.Err != nil {
			fmt.Fprintf(&sb, " err=%v", o.Err)
		}
		if o.Note != "" {
			fmt.Fprintf(&sb, " (%s)", o.Note)
		}
		sb.WriteByte('\n')
	}
	verdict := "PASS"
	if !r.OK {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "  => %s cross-diff=%.3g\n", verdict, r.CrossDiff)
	return sb.String()
}
