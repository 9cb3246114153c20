package simnet

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// pingPong is a minimal SPMD program: every node exchanges a block with
// its dimension-0 neighbor a few times.
func pingPong(rounds, words int) func(n *Node) {
	return func(n *Node) {
		peer := n.ID ^ 1
		buf := make([]float64, words)
		for i := range buf {
			buf[i] = float64(n.ID*1000 + i)
		}
		for r := 0; r < rounds; r++ {
			n.Send(peer, uint64(r), buf)
			msg := n.Recv(peer, uint64(r))
			if len(msg.Data) != words {
				panic("payload length changed in flight")
			}
		}
	}
}

func TestFaultPlanEmptyIsInert(t *testing.T) {
	run := func(fp *FaultPlan) RunStats {
		m := NewMachine(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Faults: fp})
		rs, err := m.RunErr(pingPong(3, 16))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	base := run(nil)
	seeded := run(&FaultPlan{Seed: 99}) // no probabilities: empty
	if base.Elapsed != seeded.Elapsed {
		t.Fatalf("empty plan perturbed the run: %v vs %v", base.Elapsed, seeded.Elapsed)
	}
	if base.TotalMsgs != seeded.TotalMsgs || base.TotalWords != seeded.TotalWords {
		t.Fatalf("empty plan perturbed counters: %+v vs %+v", base, seeded)
	}
	if seeded.TotalRetries != 0 {
		t.Fatalf("empty plan retried: %d", seeded.TotalRetries)
	}
}

func TestFaultRetryRecovers(t *testing.T) {
	fp := &FaultPlan{Seed: 7, Drop: 0.3, MaxRetries: 25}
	m := NewMachine(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Faults: fp})
	rs, err := m.RunErr(pingPong(8, 16))
	if err != nil {
		t.Fatalf("retry protocol failed to recover: %v", err)
	}
	if rs.TotalRetries == 0 {
		t.Fatal("30% drop over 8*8 transfers never exercised the retry path")
	}
	// Reliable mode charges acks and retransmissions: strictly more
	// traffic and time than the clean run.
	clean, err := NewMachine(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1}).RunErr(pingPong(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Elapsed <= clean.Elapsed || rs.TotalMsgs <= clean.TotalMsgs {
		t.Fatalf("faulty run not charged: elapsed %g vs %g, msgs %d vs %d",
			rs.Elapsed, clean.Elapsed, rs.TotalMsgs, clean.TotalMsgs)
	}
}

func TestFaultExhaustedRetriesReturnsLinkDown(t *testing.T) {
	// The whole network is down forever: the first send exhausts its
	// budget and the run must return (not hang, not panic) with a typed
	// error.
	fp := &FaultPlan{
		Seed:       1,
		Down:       []Window{{Src: -1, Dst: -1, From: 0, To: math.Inf(1)}},
		MaxRetries: 2,
	}
	m := NewMachine(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Faults: fp})
	_, err := m.RunErr(pingPong(2, 8))
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Attempts != 3 {
		t.Fatalf("fault detail = %+v, want 3 attempts", fe)
	}
}

func TestFaultWindowDropsOnlyInsideWindow(t *testing.T) {
	// A window that covers only the start of the run: early transfers
	// retry past it, later ones sail through; the run succeeds.
	fp := &FaultPlan{
		Seed:       3,
		Down:       []Window{{Src: -1, Dst: -1, From: 0, To: 50}},
		MaxRetries: 10,
	}
	m := NewMachine(Config{P: 4, Ports: OnePort, Ts: 10, Tw: 1, Faults: fp})
	rs, err := m.RunErr(pingPong(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rs.TotalRetries == 0 {
		t.Fatal("transfers departing inside the window were not retried")
	}
}

func TestDeadlineReturnsTypedError(t *testing.T) {
	m := NewMachine(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Deadline: 40})
	_, err := m.RunErr(pingPong(50, 64))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestDeterministicClocksUnderFaults(t *testing.T) {
	fp := &FaultPlan{Seed: 42, Drop: 0.15, Dup: 0.1, DelayProb: 0.2, DelayTime: 7, MaxRetries: 20}
	type sig struct {
		elapsed                        float64
		msgs, words, hops, wh, retries int64
	}
	sigOf := func(rs RunStats) sig {
		return sig{rs.Elapsed, rs.TotalMsgs, rs.TotalWords, rs.TotalStartups, rs.TotalWordHops, rs.TotalRetries}
	}
	var first sig
	for i := 0; i < 3; i++ {
		m := NewMachine(Config{P: 16, Ports: MultiPort, Ts: 10, Tw: 1, Faults: fp})
		rs, err := m.RunErr(pingPong(6, 24))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sigOf(rs)
		} else if sigOf(rs) != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, sigOf(rs), first)
		}
	}
	// A different seed must (with these probabilities) chart a
	// different course.
	m := NewMachine(Config{P: 16, Ports: MultiPort, Ts: 10, Tw: 1,
		Faults: &FaultPlan{Seed: 43, Drop: 0.15, Dup: 0.1, DelayProb: 0.2, DelayTime: 7, MaxRetries: 20}})
	rs, err := m.RunErr(pingPong(6, 24))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Elapsed == first.elapsed && rs.TotalRetries == first.retries {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestBarrierReleasedOnAbortAndReusable(t *testing.T) {
	// Run 1: node 0 fails its send while every other node parks in a
	// receive that no peer will ever satisfy. The abort must release
	// them and return the originating fault, not ErrAborted.
	fp := &FaultPlan{Seed: 1, Down: []Window{{-1, -1, 0, math.Inf(1)}}, MaxRetries: 1}
	m := NewMachine(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Faults: fp})
	_, err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 4))
		}
		n.Recv((n.ID+1)%n.P(), 2)
	})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("aborted run: err = %v, want ErrLinkDown", err)
	}
	// Run 2 on the same machine: nothing the seven released receivers
	// left behind may leak into a clean run, which must match a fresh
	// machine's exactly.
	m.Cfg.Faults = nil
	ring := func(n *Node) {
		p := n.P()
		n.Send((n.ID+1)%p, 3, []float64{float64(n.ID)})
		if got := n.Recv((n.ID-1+p)%p, 3); got.Data[0] != float64((n.ID-1+p)%p) {
			t.Errorf("node %d got %v", n.ID, got.Data)
		}
	}
	rs, err := m.RunErr(ring)
	if err != nil {
		t.Fatalf("machine not reusable after abort: %v", err)
	}
	if want := NewMachine(m.Cfg).Run(ring); !reflect.DeepEqual(rs, want) {
		t.Fatalf("re-run after abort diverged from a fresh machine:\ngot:  %+v\nwant: %+v", rs, want)
	}
}

func TestRunPanicsStillPropagateNonFaults(t *testing.T) {
	m := NewMachine(Config{P: 4, Ports: OnePort, Ts: 1, Tw: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("programming panic swallowed")
		}
	}()
	m.Run(func(n *Node) {
		if n.ID == 2 {
			panic("bug in node program")
		}
		// Other nodes block: the abort must still release them so the
		// panic can propagate instead of deadlocking.
		n.Recv(2, 99)
	})
}

func TestTorusFaultAbortAndReuse(t *testing.T) {
	// The fault machinery must work on the torus topology too: a hostile
	// plan surfaces a typed error with peers parked in recv, and the
	// same machine re-runs clean afterward.
	ring := func(n *Node) {
		// 3x3 torus: everyone passes a block to the right neighbor.
		q := 3
		i, j := TorusCoords(n.ID, q)
		n.Send(TorusNode(i, j+1, q), 1, make([]float64, 8))
		n.Recv(TorusNode(i, j-1, q), 1)
	}
	m := NewMachine(Config{
		P: 9, Topology: Torus2D, Ports: OnePort, Ts: 10, Tw: 1,
		Faults: &FaultPlan{
			Seed:       4,
			Down:       []Window{{Src: 0, Dst: -1, From: 0, To: math.Inf(1)}},
			MaxRetries: 2,
		},
	})
	_, err := m.RunErr(ring)
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("torus fault run: err = %v, want ErrLinkDown", err)
	}
	m.Cfg.Faults = nil
	if _, err := m.RunErr(ring); err != nil {
		t.Fatalf("torus machine not reusable after abort: %v", err)
	}
}

func TestDupChargesReceiverPort(t *testing.T) {
	// With Dup=1 every delivery arrives twice: the receive port is busy
	// for two transfer times, which must show up in the clock relative
	// to a dup-free plan with identical other settings.
	run := func(dup float64) float64 {
		fp := &FaultPlan{Seed: 5, Dup: dup, MaxRetries: 5}
		if dup == 0 {
			// Keep the plan active so both runs use reliable mode.
			fp.DelayProb = 1e-300
		}
		m := NewMachine(Config{P: 4, Ports: OnePort, Ts: 10, Tw: 1, Faults: fp})
		rs, err := m.RunErr(func(n *Node) {
			peer := n.ID ^ 1
			// Two back-to-back transfers so port occupancy matters.
			n.Send(peer, 1, make([]float64, 32))
			n.Send(peer, 2, make([]float64, 32))
			n.Recv(peer, 1)
			n.Recv(peer, 2)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs.Elapsed
	}
	if withDup, without := run(1), run(0); withDup <= without {
		t.Fatalf("duplication free of charge: %g <= %g", withDup, without)
	}
}
