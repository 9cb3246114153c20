// Package hypermm is a Go reproduction of "Communication Efficient
// Matrix Multiplication on Hypercubes" (Gupta and Sadayappan, SPAA 1994).
//
// It provides:
//
//   - the paper's two new algorithms — the 3-D Diagonal (ThreeDiag) and
//     3-D All (ThreeAll) algorithms — together with their stepping
//     stones (TwoDiag, AllTrans) and every baseline the paper compares
//     against (Simple, Cannon, Ho-Johnsson-Edelman, Berntsen, DNS),
//     all runnable on a simulated hypercube multicomputer (every
//     processor's program a coroutine on one executor, every message
//     real data delivered to its receiver) with a deterministic
//     logical clock that charges the paper's t_s + t_w*m communication
//     model under either the one-port or the multi-port machine model;
//   - the paper's analytic cost model: Table 1 collective costs,
//     Table 2 per-algorithm communication overheads, Table 3 space and
//     applicability, and the region maps of Figures 13-14.
//
// Quick start:
//
//	A := hypermm.RandomMatrix(256, 256, 1)
//	B := hypermm.RandomMatrix(256, 256, 2)
//	res, err := hypermm.Run(hypermm.ThreeAll, hypermm.Config{
//		P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5,
//	}, A, B)
//	// res.C is A*B; res.Elapsed is the simulated time;
//	// res.Comm holds message/word/start-up counters.
package hypermm

import (
	"fmt"
	"slices"
	"strings"

	"hypermm/internal/cost"
	"hypermm/internal/simnet"
)

// PortModel selects the paper's machine model.
type PortModel int

const (
	// OnePort machines drive at most one send and one receive at a time
	// per node.
	OnePort PortModel = iota
	// MultiPort machines drive all log p links of a node concurrently.
	MultiPort
)

// String implements fmt.Stringer.
func (pm PortModel) String() string { return simnet.PortModel(pm).String() }

// valid reports whether pm is OnePort or MultiPort. The cost-model
// entry points that return ok answer ok=false for any other value.
func (pm PortModel) valid() bool { return pm == OnePort || pm == MultiPort }

func (pm PortModel) internal() simnet.PortModel {
	switch pm {
	case OnePort:
		return simnet.OnePort
	case MultiPort:
		return simnet.MultiPort
	default:
		panic(fmt.Sprintf("hypermm: invalid PortModel(%d)", int(pm)))
	}
}

// Algorithm identifies one of the paper's distributed
// matrix-multiplication algorithms.
type Algorithm int

// The algorithms of the paper, in its order of presentation. ThreeDiag
// and ThreeAll are the paper's contributions; TwoDiag and AllTrans are
// their published stepping stones; the rest are the baselines of
// Section 3. Each is an id in the algorithm table (internal/cost).
const (
	Simple    = Algorithm(cost.Simple)
	Cannon    = Algorithm(cost.Cannon)
	HJE       = Algorithm(cost.HJE)
	Berntsen  = Algorithm(cost.Berntsen)
	DNS       = Algorithm(cost.DNS)
	TwoDiag   = Algorithm(cost.TwoDiag)
	ThreeDiag = Algorithm(cost.ThreeDiag)
	AllTrans  = Algorithm(cost.AllTrans)
	ThreeAll  = Algorithm(cost.ThreeAll)
	// Fox is the Fox-Otto-Hey broadcast-multiply-roll algorithm — an
	// extra baseline beyond the paper's Table 2 (its reference [4]).
	Fox = Algorithm(cost.Fox)
)

// Algorithms lists every runnable algorithm.
var Algorithms = []Algorithm{Simple, Cannon, HJE, Berntsen, DNS, TwoDiag, ThreeDiag, AllTrans, ThreeAll, Fox}

// entry is the algorithm's row of the algorithm table; ok is false for
// an id outside it.
func (a Algorithm) entry() (*cost.Entry, bool) { return cost.Lookup(cost.Alg(a)) }

// String implements fmt.Stringer with the paper's names.
func (a Algorithm) String() string {
	if e, ok := a.entry(); ok {
		return e.Title
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a command-line name ("3dall", "cannon", ...)
// to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	names := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		e, _ := a.entry()
		if s == e.Name || slices.Contains(e.Aliases, s) {
			return a, nil
		}
		names[i] = e.Name
	}
	return 0, fmt.Errorf("hypermm: unknown algorithm %q (try %s)", s, strings.Join(names, ", "))
}

// ParsePortModel resolves a command-line or request name ("one",
// "multi", "one-port", ...) to a PortModel, mirroring ParseAlgorithm.
func ParsePortModel(s string) (PortModel, error) {
	switch s {
	case "one", "oneport", "one-port":
		return OnePort, nil
	case "multi", "multiport", "multi-port":
		return MultiPort, nil
	default:
		return 0, fmt.Errorf("hypermm: unknown port model %q (try one or multi)", s)
	}
}

// Name returns the short command-line name of the algorithm.
func (a Algorithm) Name() string {
	if e, ok := a.entry(); ok {
		return e.Name
	}
	return "?"
}

// Letter returns the single-letter key used in region maps and
// calibration diff reports (matches the legend of RegionMap).
func (a Algorithm) Letter() byte { return cost.Alg(a).Letter() }

// runner returns the SPMD implementation of the algorithm, or an error
// for an id outside the algorithm table.
func (a Algorithm) runner() (cost.Runner, error) {
	if e, ok := a.entry(); ok {
		return e.Multiply, nil
	}
	return nil, fmt.Errorf("hypermm: invalid %v", a)
}

// Config describes the simulated hypercube multicomputer.
type Config struct {
	P     int       // processors; must be a power of two (square for 2-D algorithms, cube for 3-D ones)
	Ports PortModel // one-port or multi-port nodes
	Ts    float64   // message start-up time (per hop)
	Tw    float64   // transfer time per word
	Tc    float64   // compute time per floating-point operation

	// Faults, when non-empty, injects deterministic link failures and
	// switches every transfer to the acknowledged retry protocol; see
	// FaultPlan. Run surfaces ErrLinkDown when a transfer exhausts its
	// retry budget.
	Faults *FaultPlan

	// Deadline, when positive, bounds the simulated time any node may
	// consume; Run surfaces ErrDeadline when a node's clock passes it.
	Deadline float64
}
