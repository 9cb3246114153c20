package hypermm

import (
	"runtime"
	"testing"

	"hypermm/internal/matrix"
)

// TestKernelParallelismInvariance pins the tentpole invariant of the
// parallel GEMM kernel: changing the worker budget changes wall-clock
// speed only. Simulated makespans and every result byte must be
// identical at parallelism 1, 2 and GOMAXPROCS.
func TestKernelParallelismInvariance(t *testing.T) {
	A := RandomMatrix(64, 64, 1)
	B := RandomMatrix(64, 64, 2)
	cfg := Config{P: 64, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0.5}

	type run struct {
		level   int
		elapsed float64
		c       []float64
	}
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	var runs []run
	defer matrix.SetParallelism(matrix.SetParallelism(1))
	for _, lv := range levels {
		matrix.SetParallelism(lv)
		if got := matrix.Parallelism(); got != lv {
			t.Fatalf("Parallelism() = %d after SetParallelism(%d)", got, lv)
		}
		res, err := Run(ThreeAll, cfg, A, B)
		if err != nil {
			t.Fatalf("level %d: %v", lv, err)
		}
		runs = append(runs, run{lv, res.Elapsed, res.C.Data})
	}
	for _, r := range runs[1:] {
		if r.elapsed != runs[0].elapsed {
			t.Errorf("level %d: simulated time %g differs from level %d's %g",
				r.level, r.elapsed, runs[0].level, runs[0].elapsed)
		}
		for i := range r.c {
			if r.c[i] != runs[0].c[i] {
				t.Fatalf("level %d: C[%d] = %v differs from level %d's %v — kernel not bitwise deterministic",
					r.level, i, r.c[i], runs[0].level, runs[0].c[i])
			}
		}
	}
}

// TestSetKernelParallelismRestore checks the previous-value return of
// the kernel's worker-budget setter that makes scoped overrides, like
// the one above, possible.
func TestSetKernelParallelismRestore(t *testing.T) {
	orig := matrix.SetParallelism(3)
	if got := matrix.SetParallelism(orig); got != 3 {
		t.Errorf("SetParallelism returned %d, want 3", got)
	}
	if got := matrix.Parallelism(); got != orig {
		t.Errorf("Parallelism() = %d, want restored %d", got, orig)
	}
}

// TestRegionMapRepeatable pins the parallel sweep determinism at the
// public API: repeated renders of the same panel are byte-identical.
func TestRegionMapRepeatable(t *testing.T) {
	ref := RegionMap(OnePort, 150, 3, 5, 14, 32, 3, 20, 16)
	if len(ref) == 0 {
		t.Fatal("empty region map")
	}
	for trial := 0; trial < 3; trial++ {
		if got := RegionMap(OnePort, 150, 3, 5, 14, 32, 3, 20, 16); got != ref {
			t.Fatalf("trial %d: region map differs across repeated renders", trial)
		}
	}
}
