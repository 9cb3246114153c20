package server

import (
	"errors"
	"testing"

	"hypermm"
)

func TestPlanAutoMatchesBestAlgorithm(t *testing.T) {
	pl := NewPlanner(64)
	for _, pm := range []hypermm.PortModel{hypermm.OnePort, hypermm.MultiPort} {
		for _, n := range []float64{32, 256, 4096} {
			for _, p := range []float64{8, 64, 1024} {
				plan, err := pl.Plan(PlanRequest{N: n, P: p, Ts: 150, Tw: 3, Tc: 0.5, Ports: pm})
				want, ok := hypermm.BestAlgorithm(n, p, 150, 3, pm)
				if !ok {
					if err == nil {
						t.Errorf("n=%g p=%g %v: planner found %s where BestAlgorithm found none", n, p, pm, plan.AlgorithmName)
					}
					continue
				}
				if err != nil {
					t.Errorf("n=%g p=%g %v: %v", n, p, pm, err)
					continue
				}
				if plan.Algorithm != want || !plan.Auto {
					t.Errorf("n=%g p=%g %v: plan chose %s, BestAlgorithm says %s", n, p, pm, plan.AlgorithmName, want.Name())
				}
				if plan.PredictedTime != plan.CommTime+plan.ComputeTime {
					t.Errorf("predicted time %g != comm %g + compute %g", plan.PredictedTime, plan.CommTime, plan.ComputeTime)
				}
				if len(plan.Candidates) == 0 {
					t.Error("plan has no candidate diagnostics")
				}
			}
		}
	}
}

func TestPlanExplicitAlgorithm(t *testing.T) {
	pl := NewPlanner(8)
	alg := hypermm.Cannon
	plan, err := pl.Plan(PlanRequest{N: 64, P: 16, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort, Alg: &alg})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != hypermm.Cannon || plan.Auto {
		t.Errorf("explicit plan = %s auto=%v", plan.AlgorithmName, plan.Auto)
	}
	a, b, _ := hypermm.Overhead(hypermm.Cannon, 64, 16, hypermm.OnePort)
	if plan.A != a || plan.B != b {
		t.Errorf("overheads (%g, %g), want Table 2's (%g, %g)", plan.A, plan.B, a, b)
	}

	// Inapplicable explicit algorithm: Berntsen needs p <= n^1.5.
	bern := hypermm.Berntsen
	if _, err := pl.Plan(PlanRequest{N: 16, P: 1024, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort, Alg: &bern}); !errors.Is(err, ErrInapplicable) {
		t.Errorf("inapplicable explicit plan: err = %v, want ErrInapplicable", err)
	}
}

// TestPlanEveryIntegerSizeAtP64 pins a contract the benchmark relies
// on: bench/probes.go's planner probe plans n = 65, 66, ... at p = 64
// and fails the whole run on an error, so Plan must answer every
// integer size there — including the ones no runner accepts.
func TestPlanEveryIntegerSizeAtP64(t *testing.T) {
	pl := NewPlanner(1 << 10)
	for n := 65; n <= 400; n++ {
		if _, err := pl.Plan(PlanRequest{N: float64(n), P: 64, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort}); err != nil {
			t.Fatalf("n=%d p=64: %v", n, err)
		}
	}
}

func TestPlanNoneApplicable(t *testing.T) {
	pl := NewPlanner(8)
	if _, err := pl.Plan(PlanRequest{N: 4, P: 128, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort}); !errors.Is(err, ErrInapplicable) {
		t.Errorf("err = %v, want ErrInapplicable", err)
	}
}

func TestPlanBadRequest(t *testing.T) {
	pl := NewPlanner(8)
	for _, req := range []PlanRequest{
		{N: 0, P: 16, Ts: 150, Tw: 3},
		{N: 64, P: -1, Ts: 150, Tw: 3},
		{N: 64, P: 16, Ts: -1, Tw: 3},
	} {
		if _, err := pl.Plan(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Plan(%+v): err = %v, want ErrBadRequest", req, err)
		}
	}
}

func TestPlanAutoMachineSize(t *testing.T) {
	// P = 0: the planner also picks the machine size with the least
	// predicted total time; the choice must beat (or match) every other
	// power of two in range.
	pl := NewPlanner(8)
	plan, err := pl.Plan(PlanRequest{N: 256, P: 0, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	if plan.P < 2 || plan.P > MaxAutoP {
		t.Fatalf("auto-p chose p=%g outside [2, %d]", plan.P, MaxAutoP)
	}
	for p := 2.0; p <= MaxAutoP; p *= 2 {
		if alg, ok := hypermm.BestAlgorithm(256, p, 150, 3, hypermm.OnePort); ok {
			comm, _ := hypermm.CommTime(alg, 256, p, 150, 3, hypermm.OnePort)
			total := comm + hypermm.ComputeTime(256, p, 0.5)
			if total < plan.PredictedTime {
				t.Errorf("p=%g beats the planner's p=%g (%g < %g)", p, plan.P, total, plan.PredictedTime)
			}
		}
	}
}

func TestPlanCacheLRU(t *testing.T) {
	pl := NewPlanner(2)
	req := func(n float64) PlanRequest {
		return PlanRequest{N: n, P: 64, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort}
	}
	for _, n := range []float64{64, 64, 64} {
		if _, err := pl.Plan(req(n)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, entries := pl.CacheStats()
	if entries != 1 {
		t.Errorf("entries=%d, want 1", entries)
	}
	if hits != 2 || misses != 1 {
		t.Errorf("after 3 identical plans: hits=%d misses=%d, want 2/1", hits, misses)
	}
	// Two new keys evict n=64 from a capacity-2 cache.
	if _, err := pl.Plan(req(128)); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(req(256)); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(req(64)); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries = pl.CacheStats()
	if entries != 2 {
		t.Errorf("entries=%d, want 2 (capacity)", entries)
	}
	if hits != 2 || misses != 4 {
		t.Errorf("after eviction: hits=%d misses=%d, want 2/4", hits, misses)
	}
	// The cached plan must be a copy: mutating a returned plan cannot
	// poison later reads.
	p1, _ := pl.Plan(req(64))
	p1.AlgorithmName = "mutated"
	p1.Candidates[0].Algorithm = "mutated"
	p2, _ := pl.Plan(req(64))
	if p2.AlgorithmName == "mutated" || p2.Candidates[0].Algorithm == "mutated" {
		t.Error("cache returned a shared, mutable plan")
	}
}

func TestPlanConcurrent(t *testing.T) {
	// Hammer one planner from many goroutines; the race detector vets
	// the locking, we vet the answers.
	pl := NewPlanner(4)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				n := float64(int(32) << (i % 3))
				plan, err := pl.Plan(PlanRequest{N: n, P: 64, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort})
				if err != nil {
					done <- err
					return
				}
				if want, _ := hypermm.BestAlgorithm(n, 64, 150, 3, hypermm.OnePort); plan.Algorithm != want {
					done <- errors.New("concurrent plan mismatch")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
