package algorithms_test

import (
	"testing"

	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// TestCannonStressLargeMachine repeatedly runs Cannon on a 1024-node
// machine. This shook out the spawn/reset message-loss race in simnet
// (early-spawned nodes' first sends being drained by later resets) and
// guards against its return.
func TestCannonStressLargeMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("large-machine stress skipped in -short mode")
	}
	A := matrix.Random(128, 128, 1)
	B := matrix.Random(128, 128, 2)
	want := matrix.Mul(A, B)
	for trial := 0; trial < 4; trial++ {
		m := simnet.NewMachine(simnet.Config{P: 1024, Ports: simnet.OnePort, Ts: 150, Tw: 3})
		C, _, err := Cannon(m, A, B)
		if err != nil {
			t.Fatal(err)
		}
		if matrix.MaxAbsDiff(C, want) > 1e-8 {
			t.Fatal("wrong result")
		}
	}
}
