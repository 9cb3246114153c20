package algorithms_test

import (
	"errors"
	"testing"

	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// Machine-reuse error paths: the fault plan and deadline live in
// Machine.Cfg and are consulted per run, so a machine whose run just
// failed with a typed fault must be reusable — clear the fault source
// in Cfg, run the same algorithm again on the same machine, and the
// product must come out right with fresh (zeroed) counters.

// errorPathAlgs pairs each runner with a shape it accepts. n=24 is
// divisible by every embedding used here; the 2-D algorithms run on
// p=16 (even d), the 3-D ones on p=8 (d divisible by 3).
var errorPathAlgs = []struct {
	name string
	alg  Algo
	p    int
}{
	{"Simple", Simple, 16},
	{"Cannon", Cannon, 16},
	{"Fox", Fox, 16},
	{"HJE", HJE, 16},
	{"Berntsen", Berntsen, 8},
	{"DNS", DNS, 8},
}

func TestMachineReusableAfterLinkDown(t *testing.T) {
	for _, tc := range errorPathAlgs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			A := matrix.Random(n, n, 31)
			B := matrix.Random(n, n, 32)
			m := simnet.NewMachine(simnet.Config{
				P: tc.p, Ports: simnet.OnePort, Ts: 1, Tw: 1, Tc: 0.1,
				Faults: &simnet.FaultPlan{
					Down:       []simnet.Window{{Src: -1, Dst: -1, From: 0, To: 1e18}},
					MaxRetries: 1,
				},
			})
			C, _, err := tc.alg(m, A, B)
			if !errors.Is(err, simnet.ErrLinkDown) {
				t.Fatalf("total outage: got %v, want ErrLinkDown", err)
			}
			if C != nil {
				t.Fatal("partial product returned alongside the fault")
			}

			// Same machine, fault plan cleared: must now succeed.
			m.Cfg.Faults = nil
			C, rs, err := tc.alg(m, A, B)
			if err != nil {
				t.Fatalf("reused machine failed: %v", err)
			}
			if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
				t.Fatalf("reused machine product off by %g", d)
			}
			if rs.TotalRetries != 0 {
				t.Errorf("clean run on reused machine charged %d retries", rs.TotalRetries)
			}
			if rs.Elapsed <= 0 {
				t.Error("reused machine reported no elapsed time")
			}
		})
	}
}

func TestMachineReusableAfterDeadline(t *testing.T) {
	for _, tc := range errorPathAlgs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const n = 24
			A := matrix.Random(n, n, 41)
			B := matrix.Random(n, n, 42)
			m := simnet.NewMachine(simnet.Config{
				P: tc.p, Ports: simnet.OnePort, Ts: 1, Tw: 1, Tc: 0.1,
				Deadline: 0.5,
			})
			C, _, err := tc.alg(m, A, B)
			if !errors.Is(err, simnet.ErrDeadline) {
				t.Fatalf("deadline 0.5: got %v, want ErrDeadline", err)
			}
			if C != nil {
				t.Fatal("partial product returned alongside the deadline fault")
			}

			// Lift the deadline and rerun on the same machine. Elapsed
			// must be the clean makespan, not a continuation of the
			// aborted clocks.
			m.Cfg.Deadline = 0
			C, rs, err := tc.alg(m, A, B)
			if err != nil {
				t.Fatalf("reused machine failed: %v", err)
			}
			if d := matrix.MaxAbsDiff(C, matrix.Mul(A, B)); d > 1e-9 {
				t.Fatalf("reused machine product off by %g", d)
			}
			fresh := simnet.NewMachine(simnet.Config{P: tc.p, Ports: simnet.OnePort, Ts: 1, Tw: 1, Tc: 0.1})
			_, freshRs, err := tc.alg(fresh, A, B)
			if err != nil {
				t.Fatalf("fresh machine failed: %v", err)
			}
			if rs.Elapsed != freshRs.Elapsed {
				t.Errorf("reused machine makespan %g differs from fresh machine %g",
					rs.Elapsed, freshRs.Elapsed)
			}
		})
	}
}
