// Package core implements the paper's contribution: the new
// communication-efficient matrix-multiplication algorithms of Section 4
// — the 2-D Diagonal algorithm (Algorithm 2), the 3-D Diagonal
// algorithm (Algorithm 3), the 3-D All_Trans algorithm (Algorithm 4),
// and the 3-D All algorithm (Algorithm 5).
//
// All four are node programs with the same contract as the baselines in
// internal/algorithms, run by the same driver, algorithms.Spec.Multiply:
// the initial distribution the paper assumes is materialized for free,
// the algorithm's communication and computation run on the simulated
// hypercube and are charged to its clock, and the result is collected
// for free and returned assembled.
//
// Headline results (the paper's Table 2, one-port):
//
//	3DD:    t_s (4/3) log p + t_w (n^2/p^(2/3)) (4/3) log p
//	3D All: t_s (4/3) log p + t_w (n^2/p^(2/3)) (3(1-1/cbrt p) + log p/(6 cbrt p))
//
// making 3D All the cheapest algorithm wherever it applies
// (p <= n^(3/2), p >= 8) and 3DD the only algorithm for n^2 < p <= n^3.
package core
