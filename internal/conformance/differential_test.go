package conformance

import (
	"errors"
	"strings"
	"testing"

	"hypermm"
)

func cleanCase(n, p int, ports hypermm.PortModel) Case {
	return Case{N: n, P: p, Ports: ports, Ts: 150, Tw: 3, Tc: 0.5,
		Content: ContentRandom, ContentSeed: 11, Scale: 2, PlanKind: PlanClean}
}

func TestRunnableMatchesRunners(t *testing.T) {
	// The predicate is the runners' own shape rule, so it must agree
	// with them in both directions: every runnable combination runs and
	// every rejected one is refused.
	for _, n := range []int{24, 25, 32, 48} {
		A := hypermm.RandomMatrix(n, n, 1)
		B := hypermm.RandomMatrix(n, n, 2)
		for _, p := range []int{4, 8, 16, 64} {
			for _, alg := range hypermm.Algorithms {
				_, err := hypermm.Run(alg, hypermm.Config{P: p, Ports: hypermm.OnePort, Ts: 1, Tw: 1}, A, B)
				if got := Runnable(alg, n, p); got != (err == nil) {
					t.Errorf("Runnable(%v, %d, %d) = %v but Run returned %v", alg, n, p, got, err)
				}
			}
		}
	}
	if Runnable(hypermm.Cannon, 24, 3) {
		t.Error("accepted non-power-of-two p")
	}
	if Runnable(hypermm.Cannon, 25, 16) {
		t.Error("accepted n not divisible by sqrt(p)")
	}
	if Runnable(hypermm.ThreeAll, 24, 64) {
		t.Error("accepted n=24 for 3dall at p=64 (needs 16 | n)")
	}
	// HJE slices blocks into log sqrt(p) strips: n=32, p=64 gives block
	// edge 4, not divisible by 3.
	if Runnable(hypermm.HJE, 32, 64) {
		t.Error("accepted HJE block edge not divisible by log sqrt(p)")
	}
	if !Runnable(hypermm.HJE, 48, 64) {
		t.Error("rejected HJE at n=48 p=64")
	}
}

func TestCheckCleanPasses(t *testing.T) {
	for _, ports := range []hypermm.PortModel{hypermm.OnePort, hypermm.MultiPort} {
		r := Check(cleanCase(24, 8, ports))
		if !r.OK {
			t.Fatalf("clean case failed:\n%s", r)
		}
		if len(r.Outcomes) == 0 {
			t.Fatal("no algorithm ran at n=24 p=8")
		}
		for _, o := range r.Outcomes {
			if o.Status != OK {
				t.Errorf("%v: %v (%v)", o.Alg, o.Status, o.Err)
			}
			if o.Note == "" {
				t.Errorf("%v: clean outcome missing reconciliation note", o.Alg)
			}
		}
	}
}

func TestCheckCleanCubeReconciles(t *testing.T) {
	// p=64 makes every algorithm (2-D and 3-D) applicable at n=48.
	r := Check(cleanCase(48, 64, hypermm.OnePort))
	if !r.OK {
		t.Fatalf("clean cube case failed:\n%s", r)
	}
	if got, want := len(r.Outcomes), len(hypermm.Algorithms); got != want {
		t.Fatalf("ran %d algorithms, want all %d", got, want)
	}
}

func TestCheckFaultyRecoversOrFaults(t *testing.T) {
	// A light plan: every algorithm either recovers (and must still be
	// correct) or surfaces a typed fault — never a wrong answer.
	c := cleanCase(24, 8, hypermm.OnePort)
	c.PlanKind, c.Plan = PlanLight, &hypermm.FaultPlan{Seed: 9, Drop: 0.08, MaxRetries: 30}
	r := Check(c)
	if !r.OK {
		t.Fatalf("light plan produced a hard failure:\n%s", r)
	}
	retried := false
	for _, o := range r.Outcomes {
		if o.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("8% drop never exercised the retry path")
	}
}

func TestCheckHostilePlanFaultsTyped(t *testing.T) {
	c := cleanCase(24, 8, hypermm.OnePort)
	c.PlanKind, c.Plan = PlanHostile, &hypermm.FaultPlan{
		Seed:       2,
		Down:       []hypermm.Window{{Src: -1, Dst: -1, From: 0, To: hypermm.Forever}},
		MaxRetries: 1,
	}
	r := Check(c)
	if !r.OK {
		t.Fatalf("typed faults must not fail the report:\n%s", r)
	}
	for _, o := range r.Outcomes {
		if o.Status != Faulted {
			t.Errorf("%v: %v under a total outage, want faulted", o.Alg, o.Status)
		}
	}
}

func TestReportStringDeterministic(t *testing.T) {
	c := cleanCase(24, 8, hypermm.MultiPort)
	c.PlanKind, c.Plan = PlanMessy, &hypermm.FaultPlan{Seed: 5, Drop: 0.1, DelayProb: 0.2, DelayTime: 40, MaxRetries: 30}
	a, b := Check(c).String(), Check(c).String()
	if a != b {
		t.Fatalf("report text diverged:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "=> PASS") {
		t.Fatalf("unexpected verdict:\n%s", a)
	}
}

// TestChaosMixCoversRetryAndLinkDown pins the mix `make chaos` runs
// (hmm soak -seed 1 -iters 12 -oracles differential): every case must
// pass, and the sampled plans must have exercised both halves of the
// fault machinery — some run recovered through the retry path and some
// hostile plan surfaced a typed ErrLinkDown.
func TestChaosMixCoversRetryAndLinkDown(t *testing.T) {
	recovered, faulted := false, false
	observe := Oracle{Name: "differential", Check: func(c Case) error {
		r := Check(c)
		for _, o := range r.Outcomes {
			if o.Status == OK && o.Retries > 0 {
				recovered = true
			}
			if o.Status == Faulted && errors.Is(o.Err, hypermm.ErrLinkDown) {
				faulted = true
			}
		}
		if !r.OK {
			return errors.New(r.String())
		}
		return nil
	}}
	sum, err := Run(Options{Seed: 1, Iters: 12, Oracles: []Oracle{observe}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Failures {
		t.Errorf("iter %d: %v failed:\n%s", f.Iter, f.Case, f.Err)
	}
	if !recovered {
		t.Error("no case recovered through the retry path")
	}
	if !faulted {
		t.Error("no hostile case surfaced ErrLinkDown")
	}
}
