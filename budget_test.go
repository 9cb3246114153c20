//go:build !race

// The race runtime's sync.Pool drops items at random, so pooled
// buffers refill at random and byte counts do not repeat under -race.

package hypermm

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"hypermm/internal/matrix"
)

// TestRunByteBudget pins the heap bytes one warm MachinePool.RunOn of
// 3-D All allocates, at the two serve-compute shapes it runs on. Unlike
// a wall-clock or allocation-rate benchmark, TotalAlloc over one run is
// a property of the code, not of the machine, once the machine's own
// knobs are fixed: one P and one kernel worker (so the kernel borrows
// no extra pack buffers on a bigger host), and no GC during the
// measured runs (a GC empties the sync.Pools the kernel and simnet
// refill). Each budget is the value measured when it was set plus 1 %;
// lowering one records a win, raising one needs a stated reason.
func TestRunByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multiplies 512x512 operands")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer matrix.SetParallelism(matrix.SetParallelism(1))
	for _, tc := range []struct {
		n, p   int
		budget uint64 // bytes
	}{
		{512, 8, 14_846_000},  // 14,855,000 under goroutine-per-node nodes; 43.5 MB before blocks were shared
		{448, 64, 28_199_000}, // 28,445,000 under goroutine-per-node nodes; 64.1 MB before blocks were shared
	} {
		pool := NewMachinePool(1)
		cfg := Config{P: tc.p, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0.5}
		A, B := RandomMatrix(tc.n, tc.n, 1), RandomMatrix(tc.n, tc.n, 2)
		best := warmRunBytes(t, func() {
			if _, err := pool.RunOn(ThreeAll, cfg, A, B); err != nil {
				t.Fatal(err)
			}
		})
		pool.Close()
		t.Logf("3dall n=%d p=%d: %d bytes per warm run (%.1f MB)", tc.n, tc.p, best, float64(best)/1e6)
		if best > tc.budget {
			t.Errorf("3dall n=%d p=%d: %d bytes per warm run, budget %d", tc.n, tc.p, best, tc.budget)
		}
	}
}

// warmRunBytes runs run once to warm the machine and the pooled
// buffers, then returns the fewest heap bytes one of three more runs
// allocates, with the GC off throughout.
func warmRunBytes(t *testing.T, run func()) uint64 {
	defer runtime.GC() // the runs' garbage was never collected
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	best := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// TestRunAllocBudgets pins the heap objects and bytes one cold
// hypermm.Run allocates, for every table algorithm under both port
// models at (n, p) = (48, 64) — the runs.golden shapes — against
// testdata/budgets.golden. The knobs that would make the counts a
// property of the host are fixed as in TestRunByteBudget: one P, one
// kernel worker, a collected heap before each run and no GC during it.
// The fewest of three runs is compared, and each budget is the value
// measured when it was set plus 1 %. -update rewrites the file from the
// current code; lowering a row records a win, raising one needs a
// stated reason.
func TestRunAllocBudgets(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer matrix.SetParallelism(matrix.SetParallelism(1))
	path := filepath.Join("testdata", "budgets.golden")
	budgets := map[string][2]uint64{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			label, counts, _ := strings.Cut(line, " allocs=")
			var b [2]uint64
			if _, err := fmt.Sscanf(counts, "%d bytes=%d", &b[0], &b[1]); err != nil {
				t.Fatalf("%s: %q: %v", path, line, err)
			}
			budgets[label] = b
		}
	}
	A, B := RandomMatrix(48, 48, 1), RandomMatrix(48, 48, 2)
	var sb strings.Builder
	for _, pm := range []PortModel{OnePort, MultiPort} {
		cfg := Config{P: 64, Ports: pm, Ts: 150, Tw: 3, Tc: 0.5}
		for _, alg := range Algorithms {
			label := fmt.Sprintf("%s %v n=48 p=64", alg.Name(), pm)
			allocs, bytes := coldRunAllocs(func() {
				if _, err := Run(alg, cfg, A, B); err != nil {
					t.Fatal(err)
				}
			})
			fmt.Fprintf(&sb, "%s allocs=%d bytes=%d\n", label, allocs+allocs/100+1, bytes+bytes/100+1)
			if *update {
				continue
			}
			b, ok := budgets[label]
			if !ok {
				t.Errorf("%s: no row in %s", label, path)
			} else if allocs > b[0] || bytes > b[1] {
				t.Errorf("%s: %d allocs, %d bytes per cold run; budget %d allocs, %d bytes", label, allocs, bytes, b[0], b[1])
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// coldRunAllocs returns the fewest heap objects and bytes one of three
// calls of run allocates, each after a full collection, with the GC
// off during the call.
func coldRunAllocs(run func()) (allocs, bytes uint64) {
	defer runtime.GC() // the runs' garbage was never collected
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes = ^uint64(0), ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0, b0 := ms.Mallocs, ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		allocs, bytes = min(allocs, ms.Mallocs-a0), min(bytes, ms.TotalAlloc-b0)
	}
	return allocs, bytes
}
