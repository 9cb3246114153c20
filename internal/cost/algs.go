package cost

import (
	"fmt"
	"image/color"
	"math"

	"hypermm/internal/algorithms"
	"hypermm/internal/core"
	"hypermm/internal/layout"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Alg identifies one of the paper's algorithms: an index into the
// algorithm table.
type Alg int

// The algorithms of Sections 3 and 4, in the paper's order.
const (
	Simple Alg = iota
	Cannon
	HJE
	Berntsen
	DNS
	TwoDiag
	ThreeDiag
	AllTrans
	ThreeAll
	// Fox is the Fox-Otto-Hey broadcast-multiply-roll algorithm (the
	// paper's reference [4]) — an extra baseline beyond Table 2.
	Fox
	numAlgs
)

// Algorithms lists the algorithms of the paper's Tables 2 and 3, plus
// Fox: every entry but TwoDiag, the Section 4.1.1 stepping stone, which
// has no Table 2 row. hmm report's Table 2 and 3 sections range over
// it.
var Algorithms = []Alg{Simple, Cannon, HJE, Berntsen, DNS, ThreeDiag, AllTrans, ThreeAll, Fox}

// Runner is an algorithm's SPMD implementation on a simulated machine.
type Runner func(*simnet.Machine, *matrix.Dense, *matrix.Dense) (*matrix.Dense, simnet.RunStats, error)

// Entry is one algorithm's row of the algorithm table: how the command
// line names it, how the paper's figures draw it, when it runs, what
// Tables 2 and 3 charge for it, its distribution, and the node program
// that runs on it.
type Entry struct {
	Name    string                                   // command-line name
	Aliases []string                                 // further names the command line accepts
	Title   string                                   // the paper's name
	Letter  byte                                     // region-map key (Figures 13 and 14)
	Color   color.RGBA                               // region-map colour, distinguishable in grayscale too
	Shape   func(n, p int) error                     // the integer shape rule
	Dist    func(p int) (layout.Distribution, error) // where A, B and C live; what hmm layout prints
	Run     algorithms.Program                       // the node program

	maxP     func(n float64) float64 // Table 3: applicable while p <= maxP(n)
	space    func(v vars) float64    // Table 3: aggregate words over all processors
	onePort  expr                    // Table 2's one-port row
	multi    []row                   // Table 2's multi-port rows; the first whose condition holds applies
	fallback expr                    // multi-port row when no condition holds (nil: the one-port row)
}

// Multiply runs the entry on m: its node program between a scatter of A
// and B and a gather of C, all through its Dist.
func (e *Entry) Multiply(m *simnet.Machine, A, B *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
	return algorithms.Spec{Shape: e.Shape, Dist: e.Dist, Run: e.Run}.Multiply(m, A, B)
}

// vars are the terms of (n, p) that the Table 2 and 3 expressions share.
type vars struct{ n, n2, p, logp, sq, cb, p23 float64 }

func varsAt(n, p float64) vars {
	return vars{n: n, n2: n * n, p: p, logp: lg(p), sq: math.Sqrt(p), cb: math.Cbrt(p), p23: math.Pow(p, 2.0/3)}
}

// expr evaluates one Table 2 row: the overhead coefficients (a, b).
type expr func(v vars) (a, b float64)

// row is a multi-port Table 2 row with its bandwidth condition (nil:
// always holds).
type row struct {
	when func(v vars) bool
	ab   expr
}

// Table 3's applicability bounds.
func squared(n float64) float64 { return n * n }
func pow15(n float64) float64   { return math.Pow(n, 1.5) }
func cubed(n float64) float64   { return n * n * n }

// Table 2's full-bandwidth conditions (the "Conditions" column).
func bwSqrt(v vars) bool { return v.n2 >= v.p*lg(v.sq) }
func bwCbrt(v vars) bool { return v.n2 >= v.p*lg(v.cb) }
func bwP23(v vars) bool  { return v.n2 >= v.p23*lg(v.cb) }

// The runners' integer shape rules for the 3-D grid families.
func grid3D(n, p int) error   { return algorithms.CheckGrid3D(n, p, false) }
func grid3DQ2(n, p int) error { return algorithms.CheckGrid3D(n, p, true) }

// Cannon's rows, shared with HJE: one-port HJE degenerates to Cannon,
// and so does multi-port HJE without full bandwidth.
func cannonOnePort(v vars) (float64, float64) {
	return 2*(v.sq-1) + v.logp, v.n2 / v.sq * (2 - 2/v.sq + v.logp/v.sq)
}

func cannonMultiPort(v vars) (float64, float64) {
	return v.sq - 1 + v.logp/2, v.n2 / v.sq * (1 - 1/v.sq + v.logp/(2*v.sq))
}

func rgb(r, g, b uint8) color.RGBA { return color.RGBA{R: r, G: g, B: b, A: 0xff} }

var table = [numAlgs]Entry{
	Simple: {
		Name: "simple", Title: "Simple", Letter: 'S', Color: rgb(0x88, 0x88, 0x88),
		Shape: algorithms.CheckGrid2D, Dist: layout.Block2D, Run: algorithms.Simple, maxP: squared,
		space:   func(v vars) float64 { return 2 * v.n2 * v.sq },
		onePort: func(v vars) (float64, float64) { return v.logp, 2 * v.n2 / v.sq * (1 - 1/v.sq) },
		multi: []row{{bwSqrt, func(v vars) (float64, float64) {
			return v.logp / 2, v.n2 / (v.sq * lg(v.sq)) * (1 - 1/v.sq)
		}}},
	},
	Cannon: {
		Name: "cannon", Title: "Cannon", Letter: 'C', Color: rgb(0xd6, 0x60, 0x4f), // red-ish
		Shape: algorithms.CheckGrid2D, Dist: layout.Block2D, Run: algorithms.Cannon, maxP: squared,
		space:   func(v vars) float64 { return 3 * v.n2 },
		onePort: cannonOnePort,
		multi:   []row{{nil, cannonMultiPort}},
	},
	HJE: {
		Name: "hje", Title: "Ho-Johnsson-Edelman", Letter: 'H', Color: rgb(0xe8, 0xa8, 0x3c), // amber
		Shape: algorithms.CheckHJE, Dist: layout.Binary2D, Run: algorithms.HJE, maxP: squared,
		space:   func(v vars) float64 { return 3 * v.n2 },
		onePort: cannonOnePort,
		multi: []row{{func(v vars) bool { return v.n >= v.sq*lg(v.sq) }, func(v vars) (float64, float64) {
			return v.sq - 1 + v.logp/2, v.n2 / v.sq * (2/v.logp - 2/(v.sq*v.logp) + v.logp/(2*v.sq))
		}}},
		fallback: cannonMultiPort,
	},
	Berntsen: {
		Name: "berntsen", Title: "Berntsen", Letter: 'B', Color: rgb(0x7b, 0x5c, 0xa8), // violet
		Shape: grid3DQ2, Dist: layout.Berntsen, Run: algorithms.Berntsen, maxP: pow15,
		space: func(v vars) float64 { return 2*v.n2 + v.n2*v.cb },
		onePort: func(v vars) (float64, float64) {
			return 2*(v.cb-1) + v.logp, v.n2 / v.p23 * (3*(1-1/v.cb) + 2*v.logp/(3*v.cb))
		},
		multi: []row{{bwCbrt, func(v vars) (float64, float64) {
			return v.cb - 1 + 2.0/3*v.logp, v.n2 / v.p23 * ((1+3/v.logp)*(1-1/v.cb) + v.logp/(3*v.cb))
		}}},
	},
	DNS: {
		Name: "dns", Title: "DNS", Letter: 'N', Color: rgb(0x4f, 0x8f, 0x8f), // teal
		Shape: grid3D, Dist: layout.ZPlane, Run: algorithms.DNS, maxP: cubed,
		space:   func(v vars) float64 { return 2 * v.n2 * v.cb },
		onePort: func(v vars) (float64, float64) { return 5.0 / 3 * v.logp, v.n2 / v.p23 * (5.0 / 3 * v.logp) },
		multi:   []row{{bwP23, func(v vars) (float64, float64) { return 4.0 / 3 * v.logp, 4 * v.n2 / v.p23 }}},
	},
	TwoDiag: {
		Name: "2dd", Aliases: []string{"2ddiag", "twodiag"}, Title: "2D Diagonal", Letter: '2', Color: rgb(0xc0, 0xc0, 0x60),
		Shape: algorithms.CheckGrid2D, Dist: layout.Diagonal2D, Run: core.TwoDiag, maxP: squared,
		space: func(v vars) float64 { return 2*v.n2 + v.n2*v.sq },
		// Stepping-stone algorithm (Section 4.1.1); not in Table 2.
		// Scatter+bcast down columns, then reduce along rows.
		onePort: func(v vars) (float64, float64) {
			return 3.0 / 2 * v.logp, v.n2/v.sq*(1-1/v.sq) + 2*v.n2/v.sq*lg(v.sq)
		},
		multi: []row{{nil, func(v vars) (float64, float64) {
			return v.logp, v.n2/(v.sq*lg(v.sq))*(1-1/v.sq)/2 + 2*v.n2/v.sq
		}}},
	},
	ThreeDiag: {
		Name: "3dd", Aliases: []string{"3ddiag", "threediag"}, Title: "3DD", Letter: 'D', Color: rgb(0x3a, 0x6e, 0xc0), // blue
		Shape: grid3D, Dist: layout.DiagPlane, Run: core.ThreeDiag, maxP: cubed,
		space:   func(v vars) float64 { return 2 * v.n2 * v.cb },
		onePort: func(v vars) (float64, float64) { return 4.0 / 3 * v.logp, v.n2 / v.p23 * (4.0 / 3 * v.logp) },
		multi:   []row{{bwP23, func(v vars) (float64, float64) { return v.logp, 3 * v.n2 / v.p23 }}},
	},
	AllTrans: {
		Name: "alltrans", Aliases: []string{"3dalltrans"}, Title: "3D All_Trans", Letter: 'T', Color: rgb(0x5f, 0xb0, 0x6a), // light green
		Shape: grid3DQ2, Dist: layout.Fig8Trans, Run: core.AllTrans, maxP: pow15,
		space: func(v vars) float64 { return 2 * v.n2 * v.cb },
		onePort: func(v vars) (float64, float64) {
			return 4.0 / 3 * v.logp, v.n2 / v.p23 * (3*(1-1/v.cb) + v.logp/3)
		},
		multi: []row{{bwCbrt, func(v vars) (float64, float64) {
			return v.logp, v.n2 / v.p23 * (6/v.logp*(1-1/v.cb) + 1)
		}}},
	},
	ThreeAll: {
		Name: "3dall", Aliases: []string{"threeall"}, Title: "3D All", Letter: 'A', Color: rgb(0x1f, 0x7a, 0x33), // green
		Shape: grid3DQ2, Dist: layout.Fig8, Run: core.ThreeAll, maxP: pow15,
		space: func(v vars) float64 { return 2 * v.n2 * v.cb },
		onePort: func(v vars) (float64, float64) {
			return 4.0 / 3 * v.logp, v.n2 / v.p23 * (3*(1-1/v.cb) + v.logp/(6*v.cb))
		},
		// Table 2's last two rows: the first phase's all-to-all
		// personalized messages are the smallest; if they cannot fill the
		// ports (n^2 < p^(4/3) log cbrt(p)) but the later phases can, only
		// phases 2 and 3 are multi-ported.
		multi: []row{
			{func(v vars) bool { return v.n2 >= math.Pow(v.p, 4.0/3)*lg(v.cb) }, func(v vars) (float64, float64) {
				return v.logp, v.n2 / v.p23 * (6/v.logp*(1-1/v.cb) + 1/(2*v.cb))
			}},
			{bwCbrt, func(v vars) (float64, float64) {
				return v.logp, v.n2 / v.p23 * (6/v.logp*(1-1/v.cb) + v.logp/(6*v.cb))
			}},
		},
	},
	Fox: {
		Name: "fox", Title: "Fox-Otto-Hey", Letter: 'F', Color: rgb(0xa0, 0x52, 0x2d), // sienna
		Shape: algorithms.CheckGrid2D, Dist: layout.Block2D, Run: algorithms.Fox, maxP: squared,
		space: func(v vars) float64 { return 3 * v.n2 },
		// sqrt(p) row broadcasts of m = n^2/p words plus sqrt(p)-1
		// column shifts.
		onePort: func(v vars) (float64, float64) {
			m := v.n2 / v.p
			return v.sq*lg(v.sq) + v.sq - 1, m * (v.sq*lg(v.sq) + v.sq - 1)
		},
		// Sliced broadcasts bring each row broadcast to t_w m.
		multi: []row{{bwSqrt, func(v vars) (float64, float64) {
			m := v.n2 / v.p
			return v.sq*lg(v.sq) + v.sq - 1, m * (2*v.sq - 1)
		}}},
	},
}

// Lookup returns the algorithm's table entry, or ok=false for an id
// outside the table. Every per-algorithm question goes through it.
func Lookup(a Alg) (*Entry, bool) {
	if a < 0 || a >= numAlgs {
		return nil, false
	}
	return &table[a], true
}

// String implements fmt.Stringer with the paper's names.
func (a Alg) String() string {
	if e, ok := Lookup(a); ok {
		return e.Title
	}
	return fmt.Sprintf("Alg(%d)", int(a))
}

// Letter returns the single-letter key used in region maps.
func (a Alg) Letter() byte {
	if e, ok := Lookup(a); ok {
		return e.Letter
	}
	return '?'
}

// Color returns the algorithm's region-map color.
func (a Alg) Color() color.RGBA {
	if e, ok := Lookup(a); ok {
		return e.Color
	}
	return color.RGBA{A: 0xff}
}

// regime is the index of the first multi-port row whose condition holds
// at v, or -1 when none does.
func (e *Entry) regime(v vars) int {
	for i, r := range e.multi {
		if r.when == nil || r.when(v) {
			return i
		}
	}
	return -1
}
