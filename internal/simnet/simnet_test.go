package simnet

import (
	"testing"

	"hypermm/internal/matrix"
)

func mach(p int, ports PortModel, ts, tw, tc float64) *Machine {
	return NewMachine(Config{P: p, Ports: ports, Ts: ts, Tw: tw, Tc: tc})
}

func TestNeighborExchangeCostOnePort(t *testing.T) {
	// Two neighbors exchange m words: full-duplex one-port means the
	// step costs ts + tw*m, exactly the paper's shift cost.
	m := mach(2, OnePort, 10, 2, 0)
	data := make([]float64, 5)
	rs := m.Run(func(n *Node) {
		n.Send(n.ID^1, 1, data)
		n.Recv(n.ID^1, 1)
	})
	want := 10 + 2*5.0
	if rs.Elapsed != want {
		t.Errorf("exchange elapsed = %g, want %g", rs.Elapsed, want)
	}
}

func TestSequentialSendsSerializeOnePort(t *testing.T) {
	// One node sending twice pays two start-ups in sequence.
	m := mach(4, OnePort, 7, 1, 0)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 3))
			n.Send(2, 2, make([]float64, 3))
		}
		if n.ID == 1 {
			n.Recv(0, 1)
		}
		if n.ID == 2 {
			n.Recv(0, 2)
		}
	})
	// Node 0 clock: 2*(7+3). Node 2's message departs at 10 and lands at 20.
	if want := 20.0; rs.Elapsed != want {
		t.Errorf("elapsed = %g, want %g", rs.Elapsed, want)
	}
}

func TestMultiPortSendsOverlap(t *testing.T) {
	// On a multi-port machine, sends on distinct dimensions overlap.
	m := mach(4, MultiPort, 7, 1, 0)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 3)) // dim 0
			n.Send(2, 2, make([]float64, 3)) // dim 1
		}
		if n.ID == 1 {
			n.Recv(0, 1)
		}
		if n.ID == 2 {
			n.Recv(0, 2)
		}
	})
	if want := 10.0; rs.Elapsed != want {
		t.Errorf("elapsed = %g, want %g (overlapped)", rs.Elapsed, want)
	}
}

func TestMultiPortSameDimSerializes(t *testing.T) {
	// Two transfers leaving on the same dimension port must serialize
	// even on a multi-port machine.
	m := mach(2, MultiPort, 7, 1, 0)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 3))
			n.Send(1, 2, make([]float64, 3))
		}
		if n.ID == 1 {
			n.Recv(0, 1)
			n.Recv(0, 2)
		}
	})
	if want := 20.0; rs.Elapsed != want {
		t.Errorf("elapsed = %g, want %g", rs.Elapsed, want)
	}
}

func TestStoreAndForwardHopCharging(t *testing.T) {
	// Nodes 0 and 3 in a 2-cube differ in two bits: 2 hops, each
	// charged ts + tw*m.
	m := mach(4, OnePort, 5, 1, 0)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(3, 1, make([]float64, 10))
		}
		if n.ID == 3 {
			n.Recv(0, 1)
		}
	})
	if want := 2 * (5 + 10.0); rs.Elapsed != want {
		t.Errorf("elapsed = %g, want %g", rs.Elapsed, want)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	m := mach(2, OnePort, 5, 1, 0)
	rs := m.Run(func(n *Node) {
		n.Send(n.ID, 9, []float64{1, 2, 3})
		msg := n.Recv(n.ID, 9)
		if len(msg.Data) != 3 || msg.Data[2] != 3 {
			t.Error("self message corrupted")
		}
	})
	if rs.Elapsed != 0 {
		t.Errorf("self send charged %g", rs.Elapsed)
	}
}

func TestDataIntegrityAndCopy(t *testing.T) {
	m := mach(2, OnePort, 0, 0, 0)
	m.Run(func(n *Node) {
		if n.ID == 0 {
			buf := []float64{1, 2, 3}
			n.Send(1, 1, buf)
			buf[0] = 99 // mutation after send must not leak
		} else {
			msg := n.Recv(0, 1)
			if msg.Data[0] != 1 || msg.Data[1] != 2 || msg.Data[2] != 3 {
				t.Errorf("payload corrupted: %v", msg.Data)
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	m := mach(2, OnePort, 1, 1, 0)
	m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 100, []float64{100})
			n.Send(1, 200, []float64{200})
		} else {
			// Receive in the opposite order of sending.
			if got := n.Recv(0, 200).Data[0]; got != 200 {
				t.Errorf("tag 200 got %g", got)
			}
			if got := n.Recv(0, 100).Data[0]; got != 100 {
				t.Errorf("tag 100 got %g", got)
			}
		}
	})
}

func TestMatrixRoundTrip(t *testing.T) {
	m := mach(2, OnePort, 1, 1, 0)
	a := matrix.Random(4, 6, 42)
	m.Run(func(n *Node) {
		if n.ID == 0 {
			n.SendM(1, 7, a)
		} else {
			got := n.RecvM(0, 7)
			if !matrix.Equal(got, a) {
				t.Error("matrix payload mismatch")
			}
		}
	})
}

func TestComputeCharging(t *testing.T) {
	m := mach(2, OnePort, 0, 0, 0.5)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Compute(100)
		}
	})
	if rs.Elapsed != 50 {
		t.Errorf("compute elapsed = %g", rs.Elapsed)
	}
	if rs.TotalFlops != 100 {
		t.Errorf("flops = %d", rs.TotalFlops)
	}
}

func TestMulAddCharges(t *testing.T) {
	m := mach(2, OnePort, 0, 0, 1)
	a := matrix.Random(4, 4, 1)
	b := matrix.Random(4, 4, 2)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			c := matrix.New(4, 4)
			n.MulAdd(c, a, b)
			if matrix.MaxAbsDiff(c, matrix.Mul(a, b)) > 1e-12 {
				t.Error("MulAdd result wrong")
			}
		}
	})
	if rs.TotalFlops != 2*4*4*4 {
		t.Errorf("flops = %d", rs.TotalFlops)
	}
}

func TestRecvAdvancesPastCompute(t *testing.T) {
	// A receiver busy computing picks up a message at
	// max(its clock, arrival).
	m := mach(2, OnePort, 5, 1, 1)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 5))
		} else {
			n.Compute(1000)
			n.Recv(0, 1)
		}
	})
	if rs.Elapsed != 1000 {
		t.Errorf("elapsed = %g, want 1000 (message absorbed during compute)", rs.Elapsed)
	}
}

func TestStatsCounters(t *testing.T) {
	m := mach(4, OnePort, 1, 1, 0)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(3, 1, make([]float64, 10)) // 2 hops
		}
		if n.ID == 3 {
			n.Recv(0, 1)
		}
	})
	if rs.TotalMsgs != 1 || rs.TotalWords != 10 || rs.TotalStartups != 2 || rs.TotalWordHops != 20 {
		t.Errorf("stats = %+v", rs)
	}
}

func TestNoteWordsPeak(t *testing.T) {
	m := mach(2, OnePort, 0, 0, 0)
	rs := m.Run(func(n *Node) {
		n.NoteWords(10)
		n.NoteWords(50)
		n.NoteWords(20)
	})
	if rs.MaxPeak != 50 || rs.TotalPeak != 100 {
		t.Errorf("peaks = %d/%d", rs.MaxPeak, rs.TotalPeak)
	}
}

func TestDeterministicTiming(t *testing.T) {
	prog := func(n *Node) {
		p := n.P()
		for d := 0; d < n.m.Cube.Dim; d++ {
			partner := n.ID ^ (1 << d)
			n.Send(partner, uint64(d), make([]float64, 8))
			n.Recv(partner, uint64(d))
		}
		_ = p
	}
	var first RunStats
	for trial := 0; trial < 5; trial++ {
		m := mach(16, OnePort, 3, 2, 0)
		rs := m.Run(prog)
		if trial == 0 {
			first = rs
			continue
		}
		if rs.Elapsed != first.Elapsed {
			t.Fatalf("trial %d elapsed %g != %g", trial, rs.Elapsed, first.Elapsed)
		}
		for i := range rs.Nodes {
			if rs.Nodes[i].Clock != first.Nodes[i].Clock {
				t.Fatalf("trial %d node %d clock differs", trial, i)
			}
		}
	}
}

func TestNodePanicPropagates(t *testing.T) {
	m := mach(2, OnePort, 0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("node panic not propagated")
		}
	}()
	m.Run(func(n *Node) {
		if n.ID == 1 {
			panic("boom")
		}
	})
}

func TestMachineReuse(t *testing.T) {
	m := mach(4, OnePort, 1, 1, 0)
	prog := func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 4))
		}
		if n.ID == 1 {
			n.Recv(0, 1)
		}
	}
	a := m.Run(prog)
	b := m.Run(prog)
	if a.Elapsed != b.Elapsed || b.TotalMsgs != 1 {
		t.Errorf("machine state leaked across runs: %+v vs %+v", a, b)
	}
}

func TestPortModelString(t *testing.T) {
	if OnePort.String() != "one-port" || MultiPort.String() != "multi-port" {
		t.Error("PortModel strings wrong")
	}
}

// TestNoEarlySendLossRegression guards the spawn/reset race: an
// early-spawned node's first message must never be drained by a peer's
// later reset. Many quick rounds on a wide machine make the old bug
// (reset interleaved with spawning) overwhelmingly likely to hang.
func TestNoEarlySendLossRegression(t *testing.T) {
	m := mach(256, OnePort, 0, 0, 0)
	for round := 0; round < 50; round++ {
		m.Run(func(n *Node) {
			dst := (n.ID + 1) % n.P()
			n.Send(dst, uint64(round), []float64{float64(n.ID)})
			src := (n.ID - 1 + n.P()) % n.P()
			if got := n.Recv(src, uint64(round)).Data[0]; got != float64(src) {
				t.Errorf("round %d: node %d got %g, want %d", round, n.ID, got, src)
			}
		})
	}
}

func TestFaultInjection(t *testing.T) {
	// A fault hook can corrupt payloads in flight; the receiver sees
	// the corruption (this is how the end-to-end verification tests
	// prove they would catch a broken transport).
	cfg := Config{P: 2, Ports: OnePort, Ts: 1, Tw: 1}
	cfg.Corrupt = func(src, dst int, tag uint64, data []float64) {
		if len(data) > 0 {
			data[0] += 1000
		}
	}
	m := NewMachine(cfg)
	m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, []float64{1, 2})
		} else {
			got := n.Recv(0, 1).Data
			if got[0] != 1001 {
				t.Errorf("fault not applied: %v", got)
			}
		}
	})
}

func TestFaultNotAppliedToSelfSends(t *testing.T) {
	cfg := Config{P: 2, Ports: OnePort}
	cfg.Corrupt = func(src, dst int, tag uint64, data []float64) { data[0] = -1 }
	m := NewMachine(cfg)
	m.Run(func(n *Node) {
		n.Send(n.ID, 1, []float64{7})
		if got := n.Recv(n.ID, 1).Data[0]; got != 7 {
			t.Errorf("self-send corrupted: %g", got)
		}
	})
}

func TestTorusHopsAndPorts(t *testing.T) {
	m := NewMachine(Config{P: 16, Ports: OnePort, Topology: Torus2D})
	// q = 4; node = i*4 + j.
	cases := []struct {
		src, dst, hops int
	}{
		{0, 1, 1},  // east neighbor
		{0, 3, 1},  // west wrap
		{0, 12, 1}, // north wrap
		{0, 5, 2},  // diagonal
		{0, 10, 4}, // opposite corner: 2+2
		{5, 5, 0},  // self
	}
	for _, c := range cases {
		if got := m.hops(c.src, c.dst); got != c.hops {
			t.Errorf("hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
	// Wrap-shortest neighbor costs one hop end to end.
	m2 := NewMachine(Config{P: 16, Ports: OnePort, Ts: 5, Tw: 1, Topology: Torus2D})
	rs := m2.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(3, 1, make([]float64, 4)) // west wrap: 1 hop
		}
		if n.ID == 3 {
			n.Recv(0, 1)
		}
	})
	if want := 5 + 4.0; rs.Elapsed != want {
		t.Errorf("torus wrap neighbor elapsed = %g, want %g", rs.Elapsed, want)
	}
}

func TestTorusMultiPortDirections(t *testing.T) {
	// Sends in the four directions overlap on a multi-port torus node.
	m := NewMachine(Config{P: 16, Ports: MultiPort, Ts: 5, Tw: 1, Topology: Torus2D})
	rs := m.Run(func(n *Node) {
		if n.ID == 5 { // center-ish node (1,1)
			n.Send(6, 1, make([]float64, 4)) // +x
			n.Send(4, 2, make([]float64, 4)) // -x
			n.Send(9, 3, make([]float64, 4)) // +y
			n.Send(1, 4, make([]float64, 4)) // -y
		}
		switch n.ID {
		case 6:
			n.Recv(5, 1)
		case 4:
			n.Recv(5, 2)
		case 9:
			n.Recv(5, 3)
		case 1:
			n.Recv(5, 4)
		}
	})
	if want := 9.0; rs.Elapsed != want {
		t.Errorf("four-direction torus sends elapsed = %g, want %g (overlapped)", rs.Elapsed, want)
	}
}

func TestTorusRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square torus accepted")
		}
	}()
	NewMachine(Config{P: 8, Topology: Torus2D})
}

func TestTopologyString(t *testing.T) {
	if Hypercube.String() != "hypercube" || Torus2D.String() != "2-D torus" {
		t.Error("topology names wrong")
	}
}

func TestMultiPortRecvSameDimSerializes(t *testing.T) {
	// Two incoming transfers on the same dimension port serialize at
	// the receiver even on a multi-port machine.
	m := mach(2, MultiPort, 7, 1, 0)
	rs := m.Run(func(n *Node) {
		if n.ID == 0 {
			n.Send(1, 1, make([]float64, 3))
			n.Send(1, 2, make([]float64, 3))
		} else {
			n.Recv(0, 1)
			n.Recv(0, 2)
		}
	})
	if want := 20.0; rs.Elapsed != want {
		t.Errorf("elapsed = %g, want %g", rs.Elapsed, want)
	}
}

func TestMultiPortRecvPortContention(t *testing.T) {
	// Nodes 2 and 3 each send 100 words to node 1 of a 2-cube. Both
	// transfers enter node 1 across dimension 1 (e-cube routes 2 -> 3
	// -> 1), so they contend for that one receive port: 3's one-hop
	// transfer (10 + 100) and 2's two-hop one (2*10 + 100) serialize to
	// 230. Without the receive-port term they would overlap and finish
	// at 120.
	m := mach(4, MultiPort, 10, 1, 0)
	rs := m.Run(func(n *Node) {
		switch n.ID {
		case 2, 3:
			n.Send(1, 1, make([]float64, 100))
		case 1:
			n.Recv(3, 1)
			n.Recv(2, 1)
		}
	})
	if want := 230.0; rs.Elapsed != want {
		t.Errorf("elapsed = %g, want %g (one receive port per dimension)", rs.Elapsed, want)
	}
}

// TestSendsRunAheadOfReceiver: a sender runs 216 messages ahead of its
// peer — three times the buffered inbox capacity (8·ports + 64 = 72 at
// P=2) the transport once had — and the receiver takes them in reverse
// tag order. Sends never block, every message waits in the receiver's
// pending queue, and each receive still matches its exact tag.
func TestSendsRunAheadOfReceiver(t *testing.T) {
	const k = 3 * 72
	m := NewMachine(Config{P: 2, Ports: OnePort})
	m.Run(func(n *Node) {
		if n.ID == 0 {
			for tag := 0; tag < k; tag++ {
				n.Send(1, uint64(tag), []float64{float64(tag)})
			}
			if got := len(m.Node(1).pending); got != k {
				t.Errorf("receiver holds %d pending messages after %d sends", got, k)
			}
		} else {
			for tag := k - 1; tag >= 0; tag-- {
				if got := n.Recv(0, uint64(tag)).Data[0]; got != float64(tag) {
					t.Errorf("tag %d got %g", tag, got)
				}
			}
		}
	})
}

func TestNodeAccessorsAndHelpers(t *testing.T) {
	m := mach(4, MultiPort, 1, 1, 1)
	if m.Node(2).ID != 2 || m.P() != 4 {
		t.Error("machine accessors wrong")
	}
	m.Run(func(n *Node) {
		if n.P() != 4 || n.Ports() != MultiPort || n.m.Cube.Dim != 2 {
			t.Error("node accessors wrong")
		}
		if n.ID == 0 {
			a := matrix.Random(3, 4, 1)
			b := matrix.Random(4, 2, 2)
			c := n.Mul(a, b)
			if matrix.MaxAbsDiff(c, matrix.Mul(a, b)) > 1e-12 {
				t.Error("node Mul wrong")
			}
		}
	})
}

func TestMsgHelpers(t *testing.T) {
	m := mach(2, OnePort, 0, 0, 0)
	m.Run(func(n *Node) {
		if n.ID == 0 {
			n.SendM(1, 1, matrix.Random(2, 3, 1))
			n.Send(1, 2, []float64{1, 2})
		} else {
			msg := n.Recv(0, 1)
			if len(msg.Data) != 6 || msg.Matrix().Rows != 2 {
				t.Error("message helpers wrong")
			}
			raw := n.Recv(0, 2)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Matrix() on raw payload did not panic")
					}
				}()
				raw.Matrix()
			}()
		}
	})
}

func TestTorusNodeWraps(t *testing.T) {
	if TorusNode(-1, -1, 4) != TorusNode(3, 3, 4) {
		t.Error("negative wrap wrong")
	}
	if TorusNode(5, 4, 4) != TorusNode(1, 0, 4) {
		t.Error("overflow wrap wrong")
	}
	i, j := TorusCoords(TorusNode(2, 3, 4), 4)
	if i != 2 || j != 3 {
		t.Error("coords round trip wrong")
	}
}

// TestConfigValidate: the machine inputs every caller checks before
// building a machine.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{P: 1}, true},
		{Config{P: 64, Ts: 150, Tw: 3, Tc: 0.5, Deadline: 1e6}, true},
		{Config{P: 9, Topology: Torus2D}, true},
		{Config{P: 0}, false},
		{Config{P: -8}, false},
		{Config{P: 12}, false},
		{Config{P: 9}, false},
		{Config{P: 8, Topology: Torus2D}, false},
		{Config{P: 0, Topology: Torus2D}, false},
		{Config{P: 8, Ts: -1}, false},
		{Config{P: 8, Tw: -1}, false},
		{Config{P: 8, Tc: -1}, false},
		{Config{P: 8, Deadline: -1}, false},
		{Config{P: 8, Ports: MultiPort}, true},
		{Config{P: 8, Ports: -1}, false},
		{Config{P: 8, Ports: 2}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}
