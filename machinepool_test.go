package hypermm

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hypermm/internal/simnet"
)

// TestMachinePoolRunOnMatchesRun pins the pool's core contract: a warm
// run is indistinguishable from a cold one — same product bytes, same
// simulated Elapsed, same CommStats — across algorithms and repeated
// reuse of the same machine.
func TestMachinePoolRunOnMatchesRun(t *testing.T) {
	pool := NewMachinePool(4)
	defer pool.Close()
	cfg := Config{P: 16, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0.5}
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	for round := 0; round < 3; round++ {
		for _, alg := range []Algorithm{Simple, Cannon, TwoDiag} {
			want, err := Run(alg, cfg, A, B)
			if err != nil {
				t.Fatalf("%v cold: %v", alg, err)
			}
			got, err := pool.RunOn(alg, cfg, A, B)
			if err != nil {
				t.Fatalf("%v warm: %v", alg, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v round %d: warm result diverged from cold:\ncold: Elapsed=%g Comm=%+v\nwarm: Elapsed=%g Comm=%+v",
					alg, round, want.Elapsed, want.Comm, got.Elapsed, got.Comm)
			}
		}
	}
	st := pool.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
}

// TestMachinePoolHoldsNoGoroutines checks a pooled machine keeps no
// goroutines between runs: after a cold (miss), a warm (hit), a
// faulted and a deadlocked run, and a run whose products were large
// enough to be handed off to goroutines, the goroutine count returns to
// its baseline while the machine sits in the pool, without Close.
func TestMachinePoolHoldsNoGoroutines(t *testing.T) {
	cfg := Config{P: 64, Ports: OnePort, Ts: 1, Tw: 1}
	A := RandomMatrix(16, 16, 5)
	B := RandomMatrix(16, 16, 6)
	base := runtime.NumGoroutine()
	pool := NewMachinePool(2)
	hostile := cfg
	hostile.Faults = &FaultPlan{Seed: 1, Down: []Window{{Src: -1, Dst: -1, From: 0, To: Forever}}, MaxRetries: 1}
	for _, run := range []struct {
		name    string
		cfg     Config
		wantErr error
	}{{"cold", cfg, nil}, {"warm", cfg, nil}, {"faulted", hostile, ErrLinkDown}} {
		if _, err := pool.RunOn(Cannon, run.cfg, A, B); !errors.Is(err, run.wantErr) {
			t.Fatalf("%s RunOn: got %v, want %v", run.name, err, run.wantErr)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("after the %s RunOn: %d goroutines, baseline %d", run.name, n, base)
		}
	}
	// No table algorithm deadlocks: run a node program that does on
	// the pool's warm machine.
	m, err := pool.checkout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunErr(func(n *simnet.Node) { n.Recv((n.ID+1)%n.P(), 1) }); !errors.Is(err, simnet.ErrDeadlock) {
		t.Fatalf("deadlocked run: got %v, want ErrDeadlock", err)
	}
	pool.checkin(m)
	if n := settledGoroutines(base); n > base {
		t.Errorf("after the deadlocked run: %d goroutines, baseline %d", n, base)
	}
	// 64x64 blocks on 4 nodes: every product is handed off.
	big := RandomMatrix(128, 128, 7)
	if _, err := pool.RunOn(Cannon, Config{P: 4, Ports: OnePort, Ts: 1, Tw: 1}, big, big); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("after the handed-off run: %d goroutines, baseline %d", n, base)
	}
	// The same shape failing on a deadline part-way through its
	// handed-off products.
	if _, err := pool.RunOn(Cannon, Config{P: 4, Ports: OnePort, Ts: 1, Tw: 1, Deadline: 1}, big, big); !errors.Is(err, ErrDeadline) {
		t.Fatalf("faulted handed-off run: got %v, want ErrDeadline", err)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("after the faulted handed-off run: %d goroutines, baseline %d", n, base)
	}
	if st := pool.Stats(); st.Hits != 4 || st.Misses != 2 || st.Size != 2 {
		t.Errorf("pool stats %+v; want 4 hits, 2 misses, 2 idle machines", st)
	}
}

// settledGoroutines returns the goroutine count once it is at most want
// (a finished coroutine or hand-off goroutine may take a moment to
// exit), or the last count after a second of waiting.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestMachinePoolFaulted checks per-run configuration (fault plans,
// deadlines) is applied at checkout and stripped at return: a faulted
// run on a pooled machine surfaces its typed error, and the next clean
// run on the same warm machine is unaffected.
func TestMachinePoolFaulted(t *testing.T) {
	pool := NewMachinePool(1)
	defer pool.Close()
	cfg := Config{P: 4, Ports: OnePort, Ts: 1, Tw: 1}
	A := RandomMatrix(8, 8, 3)
	B := RandomMatrix(8, 8, 4)

	hostile := cfg
	hostile.Faults = &FaultPlan{Seed: 1, Down: []Window{{Src: -1, Dst: -1, From: 0, To: Forever}}, MaxRetries: 1}
	if _, err := pool.RunOn(Cannon, hostile, A, B); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("hostile warm run: got %v, want ErrLinkDown", err)
	}

	got, err := pool.RunOn(Cannon, cfg, A, B)
	if err != nil {
		t.Fatalf("clean run after faulted reuse: %v", err)
	}
	cold, err := Run(Cannon, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, got) {
		t.Fatalf("clean run after faulted reuse diverged: Elapsed %g vs %g", got.Elapsed, cold.Elapsed)
	}
}

// TestMachinePoolLRUEviction checks the capacity bound: distinct
// machine shapes beyond the capacity evict the least-recently-used
// idle machine, and evicted shapes miss on their next checkout.
func TestMachinePoolLRUEviction(t *testing.T) {
	pool := NewMachinePool(2)
	defer pool.Close()
	A := RandomMatrix(8, 8, 5)
	B := RandomMatrix(8, 8, 6)
	cfgs := []Config{
		{P: 4, Ts: 1, Tw: 1},
		{P: 4, Ts: 2, Tw: 1}, // same P, different ts: distinct machine
		{P: 16, Ts: 1, Tw: 1},
	}
	for _, cfg := range cfgs {
		if _, err := pool.RunOn(Simple, cfg, A, B); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Size != 2 || st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("after 3 distinct shapes at capacity 2: %+v", st)
	}
	// cfgs[0] was evicted (LRU); cfgs[1] and cfgs[2] are warm.
	if _, err := pool.RunOn(Simple, cfgs[1], A, B); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Hits; got != 1 {
		t.Fatalf("warm shape missed: hits = %d, want 1", got)
	}
	if _, err := pool.RunOn(Simple, cfgs[0], A, B); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Misses; got != 4 {
		t.Fatalf("evicted shape hit: misses = %d, want 4", got)
	}
}

// TestMachinePoolRejectsBadConfig checks validation runs before any
// machine is built or checked out.
func TestMachinePoolRejectsBadConfig(t *testing.T) {
	pool := NewMachinePool(1)
	defer pool.Close()
	A := RandomMatrix(4, 4, 1)
	if _, err := pool.RunOn(Simple, Config{P: 3}, A, A); err == nil {
		t.Fatal("P=3 accepted")
	}
	if _, err := pool.RunOn(Simple, Config{P: 4, Ts: -1}, A, A); err == nil {
		t.Fatal("negative ts accepted")
	}
	if st := pool.Stats(); st.Size != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("rejected configs touched the pool: %+v", st)
	}
}

// TestMachinePoolConcurrent hammers one pool from many goroutines with
// mixed shapes, faulted runs and interleaved Stats — the -race target
// for the checkout/return/eviction paths. A tiny capacity keeps
// eviction constantly racing runs in flight on checked-out machines.
func TestMachinePoolConcurrent(t *testing.T) {
	pool := NewMachinePool(2)
	defer pool.Close()
	cfgs := []Config{
		{P: 4, Ts: 1, Tw: 1},
		{P: 4, Ts: 150, Tw: 3, Tc: 0.5},
		{P: 16, Ts: 10, Tw: 3},
	}
	hostile := Config{P: 4, Ts: 1, Tw: 1,
		Faults: &FaultPlan{Seed: 7, Down: []Window{{Src: -1, Dst: -1, From: 0, To: Forever}}, MaxRetries: 1}}
	rushed := Config{P: 4, Ts: 1, Tw: 1, Deadline: 1e-9}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			A := RandomMatrix(8, 8, int64(g))
			B := RandomMatrix(8, 8, int64(g)+100)
			for i := 0; i < 20; i++ {
				switch rng.Intn(10) {
				case 0:
					if _, err := pool.RunOn(Cannon, hostile, A, B); !errors.Is(err, ErrLinkDown) {
						t.Errorf("goroutine %d: hostile run: %v", g, err)
						return
					}
					continue
				case 1:
					if _, err := pool.RunOn(Cannon, rushed, A, B); !errors.Is(err, ErrDeadline) {
						t.Errorf("goroutine %d: rushed run: %v", g, err)
						return
					}
					continue
				}
				cfg := cfgs[rng.Intn(len(cfgs))]
				res, err := pool.RunOn(Simple, cfg, A, B)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if err := Verify(A, B, res.C, 1e-9); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				pool.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := pool.Stats(); st.Size > 2 {
		t.Fatalf("pool over capacity: %+v", st)
	}
}

// TestMachinePoolCloseDuringUse checks closing the pool while machines
// are checked out: in-flight runs finish normally and their machines
// are closed on return instead of parked.
func TestMachinePoolCloseDuringUse(t *testing.T) {
	pool := NewMachinePool(4)
	cfg := Config{P: 4, Ts: 1, Tw: 1}
	A := RandomMatrix(8, 8, 9)
	B := RandomMatrix(8, 8, 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := pool.RunOn(Simple, cfg, A, B); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pool.Close()
	wg.Wait()
	pool.Close() // idempotent
	if st := pool.Stats(); st.Size != 0 {
		t.Fatalf("closed pool holds machines: %+v", st)
	}
}

// TestArenaMatricesMatchHeapMatrices pins arena determinism: pooled
// slabs are fully overwritten, so arena matrices equal their heap
// counterparts element for element even when slabs are recycled dirty.
func TestArenaMatricesMatchHeapMatrices(t *testing.T) {
	a := NewArena()
	for round := 0; round < 3; round++ {
		r1 := a.RandomMatrix(13, 17, 42)
		want := RandomMatrix(13, 17, 42)
		if !reflect.DeepEqual(r1.Data, want.Data) {
			t.Fatalf("round %d: arena RandomMatrix diverged from heap", round)
		}
		z := a.Matrix(13, 17)
		for i, v := range z.Data {
			if v != 0 {
				t.Fatalf("round %d: arena Matrix not zeroed at %d: %g", round, i, v)
			}
		}
		// Dirty the slabs so the next round catches any missing rewrite.
		for i := range r1.Data {
			r1.Data[i] = 1e9
		}
		for i := range z.Data {
			z.Data[i] = -1e9
		}
		a.Release()
	}
}

// TestArenaAdoptRecyclesProduct checks an adopted product slab re-enters
// the pool and a full warm-serving round trip (arena operands, pooled
// machine, adopted product) matches the cold path.
func TestArenaAdoptRecyclesProduct(t *testing.T) {
	pool := NewMachinePool(1)
	defer pool.Close()
	cfg := Config{P: 4, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0.5}
	want, err := Run(Cannon, cfg, RandomMatrix(16, 16, 7), RandomMatrix(16, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	for round := 0; round < 3; round++ {
		A := a.RandomMatrix(16, 16, 7)
		B := a.RandomMatrix(16, 16, 8)
		res, err := pool.RunOn(Cannon, cfg, A, B)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("round %d: warm arena run diverged from cold heap run", round)
		}
		a.Adopt(res.C)
		a.Release()
	}
}
