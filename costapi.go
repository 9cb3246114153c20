package hypermm

import (
	"hypermm/internal/cost"
)

// Analytic cost model (the paper's Tables 1-3 and the region-map
// program behind Figures 13 and 14). n and p are continuous, as in the
// paper's analysis.

// Applicable reports whether the algorithm can run an n x n problem on
// p processors at all (Table 3's conditions: p <= n^2 for the 2-D
// algorithms, p <= n^(3/2) for Berntsen and the 3-D All family,
// p <= n^3 for DNS and 3DD).
func Applicable(alg Algorithm, n, p float64) bool {
	return cost.Applicable(cost.Alg(alg), n, p)
}

// Overhead returns Table 2's communication-overhead coefficients
// (a, b), where communication time is t_s*a + t_w*b; ok is false if the
// algorithm is inapplicable at (n, p), or if alg or ports is out of
// range — as for every cost-model function here that returns ok.
func Overhead(alg Algorithm, n, p float64, ports PortModel) (a, b float64, ok bool) {
	if !ports.valid() {
		return 0, 0, false
	}
	return cost.Overhead(cost.Alg(alg), n, p, ports.internal())
}

// CommTime evaluates the analytic communication time t_s*a + t_w*b.
func CommTime(alg Algorithm, n, p, ts, tw float64, ports PortModel) (float64, bool) {
	if !ports.valid() {
		return 0, false
	}
	return cost.Time(cost.Alg(alg), n, p, ts, tw, ports.internal())
}

// TotalTime is the analytic communication time plus the perfectly
// parallel computation time 2 n^3 t_c / p.
func TotalTime(alg Algorithm, n, p, ts, tw, tc float64, ports PortModel) (float64, bool) {
	if !ports.valid() {
		return 0, false
	}
	return cost.TotalTime(cost.Alg(alg), n, p, ts, tw, tc, ports.internal())
}

// Space returns Table 3's aggregate storage in words.
func Space(alg Algorithm, n, p float64) (float64, bool) {
	return cost.Space(cost.Alg(alg), n, p)
}

// RegionMap computes a Figure 13/14-style best-algorithm map over
// logN (columns) and logP (rows) and returns its ASCII rendering. The
// candidate set is the paper's: Cannon, Berntsen, 3DD and 3D All, plus
// Ho-Johnsson-Edelman on multi-port machines.
func RegionMap(ports PortModel, ts, tw float64,
	logNMin, logNMax float64, nSteps int,
	logPMin, logPMax float64, pSteps int) string {
	pm := ports.internal()
	rm := cost.NewRegionMap(pm, ts, tw, cost.DefaultCandidates(pm),
		logNMin, logNMax, nSteps, logPMin, logPMax, pSteps)
	return rm.Render()
}

// Candidates returns the algorithm set BestAlgorithm and RegionMap
// choose from on the given machine model (the paper's Section 5
// comparison set).
func Candidates(ports PortModel) []Algorithm {
	cas := cost.DefaultCandidates(ports.internal())
	out := make([]Algorithm, len(cas))
	for i, ca := range cas {
		out[i] = Algorithm(ca)
	}
	return out
}

// ComputeTime is the perfectly parallel computation time 2 n^3 t_c / p —
// the compute half of TotalTime.
func ComputeTime(n, p, tc float64) float64 {
	return cost.ComputeTime(n, p, tc)
}

// BestAlgorithm returns the algorithm with the least analytic
// communication time at (n, p), or ok=false if none applies. The
// candidate set matches RegionMap's; the uncalibrated (nil) model ranks.
func BestAlgorithm(n, p, ts, tw float64, ports PortModel) (Algorithm, bool) {
	return (*CalibratedModel)(nil).BestAlgorithm(n, p, ts, tw, ports)
}

// Efficiency returns the analytic parallel efficiency
// E = 2 n^3 t_c / (p * T_total) at (n, p).
func Efficiency(alg Algorithm, n, p, ts, tw, tc float64, ports PortModel) (float64, bool) {
	if !ports.valid() {
		return 0, false
	}
	return cost.Efficiency(cost.Alg(alg), n, p, ts, tw, tc, ports.internal())
}

// IsoefficiencyN returns the smallest matrix size sustaining the target
// efficiency on p processors — the scalability metric of Gupta & Kumar
// (the paper's reference [5]). Lower growth with p means a more
// scalable algorithm.
func IsoefficiencyN(alg Algorithm, p, target, ts, tw, tc float64, ports PortModel) (float64, bool) {
	if !ports.valid() {
		return 0, false
	}
	return cost.IsoefficiencyN(cost.Alg(alg), p, target, ts, tw, tc, ports.internal())
}

// Aligned reports whether the algorithm's result matrix is distributed
// exactly like its operands — the paper's chaining property (true for
// Simple, Cannon, HJE, Fox, DNS, 3DD and 3D All; false for Berntsen,
// whose result layout is its stated drawback, and for the
// transpose-mismatched operands of 3D All_Trans and 2-D Diagonal).
// It reads the algorithm's distribution at p = 64, which every grid in
// the table takes (8^2 and 4^3).
func Aligned(alg Algorithm) bool {
	e, ok := alg.entry()
	if !ok {
		return false
	}
	d, err := e.Dist(64)
	return err == nil && d.Aligned()
}
