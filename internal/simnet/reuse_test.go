package simnet

import (
	"errors"
	"reflect"
	"testing"
)

// exerciser is a nontrivial SPMD program touching sends, shaped
// receives, self-delivery and compute — the surfaces whose state a
// machine reset must scrub.
func exerciser(round uint64) func(n *Node) {
	return func(n *Node) {
		p := n.P()
		right, left := (n.ID+1)%p, (n.ID-1+p)%p
		n.Send(right, round<<8|1, []float64{float64(n.ID), float64(n.ID + 1)})
		n.Send(n.ID, round<<8|2, []float64{42}) // self-delivery
		msg := n.Recv(left, round<<8|1)
		msg.Release()
		n.Compute(100)
		n.Recv(n.ID, round<<8|2).Release()
		n.Send(n.ID^1, round<<8|3, make([]float64, 16))
		n.Recv(n.ID^1, round<<8|3).Release()
	}
}

// TestReuseRunEquivalence pins the machine-reuse invariant: a machine
// run again and again (the pool's warm path) produces RunStats
// byte-identical to a fresh machine's, run after run.
func TestReuseRunEquivalence(t *testing.T) {
	cfg := Config{P: 8, Ports: OnePort, Ts: 10, Tw: 2, Tc: 0.5}
	warm := NewMachine(cfg)
	for round := uint64(0); round < 5; round++ {
		want := NewMachine(cfg).Run(exerciser(round))
		got := warm.Run(exerciser(round))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: reused machine diverged from fresh machine:\nfresh: %+v\nwarm:  %+v", round, want, got)
		}
	}
}

// TestReuseAfterFault checks a machine survives a faulted run and its
// next clean run is indistinguishable from a fresh machine's.
func TestReuseAfterFault(t *testing.T) {
	cfg := Config{P: 4, Ports: OnePort, Ts: 1, Tw: 1}
	cfg.Faults = &FaultPlan{Seed: 9, Down: []Window{{Src: -1, Dst: -1, From: 0, To: 1e18}}, MaxRetries: 1}
	m := NewMachine(cfg)
	prog := exerciser(0)
	if _, err := m.RunErr(prog); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("hostile plan: got %v, want ErrLinkDown", err)
	}
	m.Cfg.Faults = nil
	got, err := m.RunErr(prog)
	if err != nil {
		t.Fatalf("clean run after fault: %v", err)
	}
	want := NewMachine(Config{P: 4, Ports: OnePort, Ts: 1, Tw: 1}).Run(prog)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-fault reuse diverged:\nfresh: %+v\nwarm:  %+v", want, got)
	}
}

// TestPoolBalanceAfterFaultedRun is the leak regression for the
// abort/error path: a run that dies mid-collective leaves messages in
// pending queues, and RunErr must return their buffers to the free
// list. The program sends messages that are never received (remote and
// self-delivered) and then fails; every buffer handed out must come
// back.
func TestPoolBalanceAfterFaultedRun(t *testing.T) {
	m := mach(4, OnePort, 1, 1, 0)
	_, err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			for i := 0; i < 16; i++ {
				n.Send(1, uint64(i), make([]float64, 32)) // never received
			}
			n.Send(0, 99, []float64{1}) // self-delivery, never received
		}
		if n.ID == 1 {
			panic(&FaultError{Node: 1, Op: "recv", Src: -1, Dst: -1, Err: ErrLinkDown})
		}
		if n.ID > 1 {
			n.Recv(0, 1000) // never sent: released by the abort
		}
	})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("got %v, want ErrLinkDown", err)
	}
	if out := m.unreleased; out != 0 {
		t.Fatalf("%d payload buffers leaked across a faulted run", out)
	}
}

// TestPoolBalanceAfterLinkDownSend covers the sendReliable fault paths:
// both the retries-exhausted ErrLinkDown panic and the released payload
// of every lost attempt must leave the pool balanced.
func TestPoolBalanceAfterLinkDownSend(t *testing.T) {
	m := NewMachine(Config{
		P: 2, Ts: 1, Tw: 1,
		Faults: &FaultPlan{Seed: 3, Down: []Window{{Src: 0, Dst: 1, From: 0, To: 1e18}}, MaxRetries: 2},
	})
	_, err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 5, make([]float64, 8))
		}
		if n.ID == 1 {
			n.Recv(0, 5)
		}
	})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("got %v, want ErrLinkDown", err)
	}
	if out := m.unreleased; out != 0 {
		t.Fatalf("%d payload buffers leaked on a link-down send", out)
	}
}

// TestPoolBalanceAfterDeadline covers the deadline fault paths: a send
// that trips the deadline after its payload buffer was taken from the
// free list must hand the buffer back before raising the fault.
func TestPoolBalanceAfterDeadline(t *testing.T) {
	m := NewMachine(Config{P: 2, Ts: 100, Tw: 1, Deadline: 50})
	_, err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 4)) // pushes the clock past the deadline
			n.Send(1, 2, make([]float64, 4)) // trips it with a box in hand
		}
		if n.ID == 1 {
			n.Recv(0, 1).Release()
			n.Recv(0, 2).Release()
		}
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if out := m.unreleased; out != 0 {
		t.Fatalf("%d payload buffers leaked on a deadline", out)
	}
}

// TestPoolBalanceCleanRun: a program whose receivers release everything
// they consume returns every payload buffer on the success path too.
func TestPoolBalanceCleanRun(t *testing.T) {
	m := mach(8, MultiPort, 5, 1, 0)
	m.Run(exerciser(1))
	if out := m.unreleased; out != 0 {
		t.Fatalf("%d payload buffers leaked on a clean run", out)
	}
}
