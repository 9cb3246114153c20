//go:build !race

// The race runtime's sync.Pool drops items at random, so pooled
// buffers refill at random and byte counts do not repeat under -race.

package hypermm

import (
	"runtime"
	"runtime/debug"
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
		{512, 8, 14_855_000},  // 43.5 MB before blocks were shared
		{448, 64, 28_445_000}, // 64.1 MB before
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
